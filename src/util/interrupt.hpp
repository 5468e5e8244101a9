// Cooperative interruption.
//
// A process-wide flag set from SIGINT/SIGTERM (or programmatically) that
// long-running loops poll. The sweep executor cooperates: once the flag
// is up, worker threads stop claiming new cells, in-flight cells run to
// completion, and the sweep surfaces a structured kInterrupted error
// ("k/n cells finished") so benches exit 130 instead of printing a
// partial table.
//
// The flag is a lock-free std::atomic<int>: relaxed atomic stores are
// async-signal-safe, and unlike a bare volatile sig_atomic_t the flag may
// also be set/read across threads (tests, pool workers) without racing.
#pragma once

namespace ppg {

/// Installs SIGINT and SIGTERM handlers that set the interrupt flag.
/// Idempotent; call from main() before long-running work.
void install_interrupt_handler();

/// True once an interrupt was requested (signal or request_interrupt()).
bool interrupt_requested();

/// Sets the flag directly — tests and cooperative shutdown paths.
void request_interrupt();

/// Clears the flag (tests; the flag is per-process, so a new run starts
/// with it down).
void clear_interrupt();

}  // namespace ppg
