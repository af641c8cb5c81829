#pragma once
// CLEAN: the wrapper layer spells the std primitive (exempted by this
// tree's allowlist -- and the exemption is live, since raw-sync flags
// this file with it off).
#include <mutex>

namespace demo::support {

class Mutex {
public:
    void lock() { mu_.lock(); }
    void unlock() { mu_.unlock(); }

private:
    std::mutex mu_;
};

class MutexLock {
public:
    explicit MutexLock(Mutex& mu) : mu_(mu) { mu_.lock(); }
    ~MutexLock() { mu_.unlock(); }

private:
    Mutex& mu_;
};

}  // namespace demo::support
