// CLEAN: shared state guarded through the annotated wrapper, never a raw
// std primitive.
#include "support/sync.hpp"

namespace demo::core {

long bump(demo::support::Mutex& mu, long& counter) {
    demo::support::MutexLock lock(mu);
    return ++counter;
}

}  // namespace demo::core
