// The hot path's `out.push(…)` is `String::push` (`out` is a
// `&mut String` parameter), not the event log's allocating `push`.

pub struct EventLog {
    lines: Vec<String>,
}

impl EventLog {
    pub fn push(&mut self, c: char) {
        self.lines.push(c.to_string());
    }
}

// lint: hot-path
pub fn write_quoted(out: &mut String, name: &str) {
    out.push('"');
    out.push_str(name);
    out.push('"');
}
