// BAD: counter_add is an emission-path root; it calls across the TU
// boundary into support, where the callee allocates.  A walk that
// stopped at the file edge would miss this; the cross-TU walk must not.
namespace demo::telemetry {

void counter_add(long value) {
    format_label(value);
}

}  // namespace demo::telemetry
