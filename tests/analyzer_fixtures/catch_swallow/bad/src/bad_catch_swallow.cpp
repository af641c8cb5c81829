// Must be flagged by [catch-swallow].  The catch-all
// handler drops the exception on the floor -- no rethrow, no
// std::current_exception capture for a later rethrow.
int risky();

int swallow_everything() {
    try {
        return risky();
    } catch (...) {
        return -1;
    }
}
