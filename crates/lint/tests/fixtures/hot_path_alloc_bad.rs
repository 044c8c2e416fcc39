//! Fixture: per-call allocations inside a `lint: hot-path` fn.
// lint: hot-path
fn tick_all(machines: &mut [Machine], out: &mut Vec<Exit>) {
    let mut scratch = Vec::new();
    let mut wants = Vec::with_capacity(machines.len());
    let ids: Vec<u64> = machines.iter().map(|m| m.id).collect();
    let zeros = vec![0.0; ids.len()];
    for m in machines {
        wants.push(m.want());
        scratch.push(zeros.first().copied());
    }
    out.push(Exit::from(scratch.len() + wants.len()));
}

// lint: hot-path
fn ingest_one(state: &mut TaskState, sample: &Sample, specs: &Specs) {
    state.job = sample.job.clone();
    let key = format!("{}@{}", sample.job, sample.platform);
    let spec = specs.get(&key).map(|s| s.to_owned());
    state.label = sample.platform.to_string();
    state.history = sample.window.to_vec();
    state.spec = spec;
}
