// Fixture: process-environment reads that would switch engine behaviour.
#include <cstdlib>
#include <cstring>

inline bool UseAlternateQueue() {
  const char* env = std::getenv("QUEUE_KIND");  // LINT-EXPECT: env-read
  return env != nullptr && std::strcmp(env, "alt") == 0;
}

inline bool Verbose() {
  return secure_getenv("VERBOSE") != nullptr;  // LINT-EXPECT: env-read
}

// A name that merely contains the word is not a read.
inline int GetenvCount() { return 0; }
