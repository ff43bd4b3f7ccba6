//! Fixture: counter-key literal violations. Never compiled — machlint's
//! integration tests lex it and assert L3 fires on the marked lines.

pub fn count_things(stats: &StatsRegistry, lat: &LatencyRegistry) {
    stats.incr("vm.faults"); // line 5: literal key
    stats.add("ipc.bytes", 128); // line 6: literal key
    lat.record("fault.latency", 9); // line 7: literal key
    stats.incr(keys::VM_FAULTS); // const key: fine
    stats.add(keys::IPC_BYTES, 128); // const key: fine
}

#[cfg(test)]
mod tests {
    #[test]
    fn scratch_keys_are_fine_in_tests() {
        let stats = StatsRegistry::default();
        stats.incr("scratch.key"); // test code: L3 stays quiet
    }
}
