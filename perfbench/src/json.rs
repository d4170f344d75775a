//! A minimal ordered JSON object writer (the benchmark has no
//! serialization dependency).

pub struct Obj(Vec<(String, String)>);

fn number(v: f64) -> String {
    if v.is_finite() {
        // `Display` prints the shortest representation that round-trips.
        format!("{v}")
    } else {
        "null".into()
    }
}

fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Obj {
    pub fn new() -> Self {
        Self(Vec::new())
    }

    /// Inserts an already-rendered JSON value.
    pub fn raw(&mut self, key: &str, value: String) -> &mut Self {
        self.0.push((key.to_string(), value));
        self
    }

    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.raw(key, number(v))
    }

    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.raw(key, v.to_string())
    }

    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.raw(key, v.to_string())
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, string(v))
    }

    pub fn nums(&mut self, key: &str, vs: &[f64]) -> &mut Self {
        let items: Vec<String> = vs.iter().map(|&v| number(v)).collect();
        self.raw(key, format!("[{}]", items.join(", ")))
    }

    pub fn strs(&mut self, key: &str, vs: &[String]) -> &mut Self {
        let items: Vec<String> = vs.iter().map(|v| string(v)).collect();
        self.raw(key, format!("[{}]", items.join(", ")))
    }

    pub fn render(&self) -> String {
        let items: Vec<String> =
            self.0.iter().map(|(k, v)| format!("{}: {v}", string(k))).collect();
        format!("{{{}}}", items.join(", "))
    }
}
