// BAD: the allowlist names two stop functions.  `adopt` is live: the
// emission root calls it, and stopping there keeps its first-use
// allocation off the hot path.  `retire` still appears in the telemetry
// sources, but only the thread-exit hook calls it, and the walk from the
// emission roots never reaches that hook -- so its entry stops nothing
// and is stale.
struct Ring {
    long slots[16];
    unsigned long head = 0;
};

Ring* adopt() {
    return new Ring();  // once per thread: the documented cold start
}

void retire(Ring* ring) {
    delete ring;
}

thread_local Ring* t_ring = nullptr;

void counter_add(long value) {
    if (t_ring == nullptr) t_ring = adopt();
    t_ring->slots[t_ring->head++ & 15u] = value;
}

void on_thread_exit() {
    retire(t_ring);
}
