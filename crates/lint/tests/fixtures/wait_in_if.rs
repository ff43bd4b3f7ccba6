//! L8 fixture: `block` calls guarded only by an `if` must fire; loop-guarded
//! waits (including inside match arms), the allowlisted step function,
//! and test code must stay quiet.

pub fn wait_under_if(&self) {
    let mut g = self.state.lock();
    if g.queue.is_empty() {
        self.cv.block(&mut g, None); // fires: no re-check on wakeup
    }
}

pub fn timed_wait_under_if(&self) {
    let mut g = self.state.lock();
    if g.idle {
        self.cv.block(&mut g, Some(&deadline)); // fires
    }
}

pub fn wait_in_while(&self) {
    let mut g = self.state.lock();
    while g.queue.is_empty() {
        self.cv.block(&mut g, None); // quiet: predicate loop
    }
}

pub fn wait_in_match_arm_inside_loop(&self) {
    loop {
        let mut g = self.state.lock();
        match g.phase {
            Phase::Drained => break,
            Phase::Filling => {
                self.cv.block(&mut g, None); // quiet: the loop re-checks
            }
        }
    }
}

pub fn step_once(&self) -> bool {
    let mut g = self.state.lock();
    if g.may_sleep() {
        self.cv.block(&mut g, Some(&deadline)); // quiet: allowlisted, caller loops
    }
    g.progressed
}

#[cfg(test)]
mod tests {
    #[test]
    fn scenario() {
        if x {
            cv.block(&mut g, None); // quiet: test code
        }
    }
}
