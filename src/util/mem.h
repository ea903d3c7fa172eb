#ifndef CKNN_UTIL_MEM_H_
#define CKNN_UTIL_MEM_H_

#include <cstddef>
#include <vector>

namespace cknn {

/// \name Structure-size estimation
/// Helpers for the Figure-18 memory experiments. They estimate the heap
/// footprint of the monitoring structures (expansion trees, influence lists,
/// result sets) the way the paper reports space: payload bytes of the
/// containers.
/// @{

template <typename T>
std::size_t VectorBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// @}

}  // namespace cknn

#endif  // CKNN_UTIL_MEM_H_
