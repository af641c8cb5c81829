// Must be flagged by [raw-sync].  Raw std concurrency
// primitives outside src/support/ are invisible to clang's thread-safety
// analysis; the rule points at the annotated support::Mutex wrappers.
#include <mutex>
#include <thread>

struct Holder {
    std::mutex mu;
    int value = 0;

    void set(int v) {
        std::lock_guard<std::mutex> lock(mu);
        value = v;
    }
};

void spawn_detached() {
    std::thread([] {}).detach();
}
