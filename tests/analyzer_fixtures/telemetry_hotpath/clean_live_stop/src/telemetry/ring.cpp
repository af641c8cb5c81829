// CLEAN: the same ring with only the live stop function allowlisted.
// The emission root reaches its call to `adopt`, whose first-use
// allocation the stop keeps off the hot path; the thread-exit hook is off
// the walk and needs no entry.
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
