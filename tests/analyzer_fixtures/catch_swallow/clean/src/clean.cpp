// Must pass every rule.  The near-miss shapes of catch-swallow: a
// catch-all that rethrows, and one that captures the exception via
// std::current_exception for a later rethrow.
#include <exception>

int risky();

struct Runner {
    bool saw_error = false;
    std::exception_ptr pending;

    int run() {
        try {
            return risky();
        } catch (...) {
            saw_error = true;
            throw;  // rethrow: not a swallow
        }
    }

    int run_deferred() {
        try {
            return risky();
        } catch (...) {
            pending = std::current_exception();  // rethrown by the caller
            return -1;
        }
    }
};
