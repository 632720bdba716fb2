//! Fixture library: one deliberate violation (or near-miss) per lint.

use std::collections::HashMap;

pub fn wallclock() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn entropy() -> u64 {
    thread_rng()
}

pub fn unordered() -> HashMap<u32, u32> {
    HashMap::new()
}

pub fn threads() {
    std::thread::spawn(|| {});
}

pub fn processes() {
    std::process::Command::new("x");
}

pub fn process_near_miss() {
    // `Command` without a `process::` path is someone else's type, and
    // `process::exit` is not a spawn — neither may trip AD04.
    let _c = Command::default();
    std::process::exit(0);
}

pub fn panics(v: &[u32]) -> u32 {
    if v.is_empty() {
        panic!("boom");
    }
    v[0]
}

pub fn unwraps(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn escaped(v: Option<u32>) -> u32 {
    // analyzer:allow(AP02) -- fixture: the invariant is documented here
    v.expect("escaped site")
}

pub fn reasonless(v: Option<u32>) -> u32 {
    // analyzer:allow(AP02)
    v.unwrap()
}

// analyzer:allow(AD01) -- stale: nothing on these lines reads a clock
pub fn stale_escape() {}

pub fn obs_names(rec: &Recorder, log: &mut ShardLog) {
    rec.stage("boot", || {});
    log.add("Not-Registered", 1);
    log.add("mystery.name", 1);
    rec.stage("stage.unregistered", || {});
    log.add("fault.unknown", 1);
}

pub fn live_names(log: &mut ShardLog) {
    // Keeps these registry entries live for AS03; fault.packet_drop and
    // fault.mystery have no emitting site anywhere and stay dead.
    log.add("render.bytes", 1);
    log.add("fault.injected", 1);
}

pub fn near_misses() {
    // Instant and thread_rng in a comment are data, not findings.
    let _s = "Instant::now() and thread_rng() and panic!";
    let _r = r#"HashMap in a raw string"#;
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let v: Vec<u32> = vec![1];
        let _ = v[0];
        let _ = Some(1).unwrap();
        let _ = std::time::Instant::now();
        panic!("fine in tests");
    }
}
