// Must pass every rule.  A telemetry hot path in the sanctioned shape:
// fixed-size ring, plain stores, no allocation/lock/clock.
#include <cstdint>

struct Record {
    std::uint64_t value;
};

struct Ring {
    Record slots[16];
    std::uint64_t head = 0;

    void put(const Record& r) {
        slots[head & 15u] = r;
        ++head;
    }
};

inline Ring g_ring;

void counter_add(std::uint64_t value) {
    g_ring.put(Record{value});
}
