// Must be flagged by [telemetry-hotpath].  The emission entry point
// (counter_add) reaches an allocation through a same-TU helper --
// exactly the regression the call-graph reachability walk exists to
// catch.
#include <cstdint>

struct Record {
    std::uint64_t value;
};

void sink(const Record& r);

void emit(const Record& r) {
    auto* copy = new Record(r);  // allocation on the record path
    sink(*copy);
}

void counter_add(std::uint64_t value) {
    Record record{value};
    emit(record);
}
