//! Fixture: trace-coverage violations. Never compiled — machlint's
//! integration tests lex it and assert L5 fires on the marked lines.

impl Port {
    pub fn send(&self, msg: Message) -> Result<(), IpcError> { // line 5: charges, no trace
        self.machine.clock.charge(self.machine.cost.send_cost_ns());
        self.queue.push(msg);
        Ok(())
    }

    pub fn traced_send(&self, msg: Message) -> Result<(), IpcError> {
        self.machine.clock.charge(self.machine.cost.send_cost_ns());
        self.machine.trace_event("ipc.send", EventKind::Mark("send"));
        self.queue.push(msg);
        Ok(())
    }

    fn private_helper(&self) {
        // Private: out of L5's scope even though it charges.
        self.machine.clock.charge_us(1);
    }

    pub fn uncharged(&self) -> usize {
        // Charges nothing, so needs no trace event.
        self.queue.len()
    }
}
