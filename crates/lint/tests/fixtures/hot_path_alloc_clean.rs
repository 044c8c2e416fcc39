//! Fixture: hot-path fns reuse caller-owned scratch buffers; unmarked
//! fns may allocate freely.
// lint: hot-path
fn tick_all(machines: &mut [Machine], wants: &mut Vec<f64>, out: &mut Vec<Exit>) {
    wants.clear();
    for m in machines.iter_mut() {
        wants.push(m.want());
    }
    if let Some(last) = wants.last() {
        out.push(Exit::of(*last));
    }
}

/// Cold setup path: allocation here is fine — no marker above.
fn build_fleet(n: usize) -> Vec<Machine> {
    let mut fleet = Vec::with_capacity(n);
    for seed in 0..n {
        fleet.push(Machine::seeded(seed));
    }
    fleet
}

// lint: hot-path
fn drain_exits(pending: &mut Vec<Exit>, out: &mut Vec<Exit>) {
    // lint: allow(hot-path-alloc) — drained once per epoch, not per tick
    let spare: Vec<Exit> = pending.drain(..).collect();
    for e in spare {
        out.push(e);
    }
}

// lint: hot-path
fn ingest_one(state: &mut TaskState, sample: &Sample) {
    // Borrowed compares and in-place reuse: no owned copy per sample.
    if state.job != sample.job {
        state.job.clone_from(&sample.job);
    }
    state.class = sample.class;
    state.cloned_at = sample.timestamp;
}
