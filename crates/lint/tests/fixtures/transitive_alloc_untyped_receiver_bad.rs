// The sink's type is a generic parameter the parser cannot read, so
// `sink.push(…)` keeps the name-only fan-out: it reaches the event
// log's allocating `push`, and the pass reports the path.

pub struct EventLog {
    lines: Vec<String>,
}

impl EventLog {
    pub fn push(&mut self, c: char) {
        self.lines.push(c.to_string());
    }
}

// lint: hot-path
pub fn write_quoted<S: Sink>(sink: &mut S, c: char) {
    sink.push(c);
}
