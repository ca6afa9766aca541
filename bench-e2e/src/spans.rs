//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start ns, end ns, parent id, wave id)`, opened and
//! closed around one public call into a layer, on the generator thread
//! only — so spans nest strictly and a layer's *self time* (its span
//! minus the part its children cover) is exact arithmetic on a stack.
//! Self times are aggregated as spans close; full span records are kept
//! only for the first [`KEPT_WAVES`] waves of every round, which bounds
//! memory and the size of the file written at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Waves per round whose spans are kept verbatim for the span file.
const KEPT_WAVES: u64 = 4;

struct Open {
    name: &'static str,
    start: u64,
    /// Summed durations of already-closed direct children.
    covered: u64,
    /// Index into `kept` when this span is being kept.
    kept: Option<u32>,
}

struct Kept {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<u32>,
    wave: u64,
}

/// Self time and call count of one span name.
#[derive(Clone, Copy, Default)]
pub struct SelfTime {
    /// Summed self time, ns.
    pub ns: u64,
    /// Spans closed under this name.
    pub calls: u64,
}

/// The recorder. With `on == false` every call is one branch.
pub struct Spans {
    on: bool,
    origin: Instant,
    open: Vec<Open>,
    kept: Vec<Kept>,
    wave: u64,
    waves_this_round: u64,
    round: BTreeMap<&'static str, SelfTime>,
}

impl Spans {
    /// A recorder that records nothing (untraced runs).
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            open: Vec::new(),
            kept: Vec::new(),
            wave: 0,
            waves_this_round: 0,
            round: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open the root span of the next wave.
    pub fn enter_wave(&mut self) {
        if self.on {
            self.wave += 1;
            self.waves_this_round += 1;
            self.enter("harness.wave");
        }
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = self.now();
        let kept = (self.waves_this_round <= KEPT_WAVES).then(|| {
            let parent = self.open.last().and_then(|o| o.kept);
            self.kept.push(Kept {
                name,
                start,
                end: start,
                parent,
                wave: self.wave,
            });
            (self.kept.len() - 1) as u32
        });
        self.open.push(Open {
            name,
            start,
            covered: 0,
            kept,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let o = self.open.pop().expect("exit without enter");
        let dur = end - o.start;
        let slot = self.round.entry(o.name).or_default();
        slot.ns += dur.saturating_sub(o.covered);
        slot.calls += 1;
        if let Some(parent) = self.open.last_mut() {
            parent.covered += dur;
        }
        if let Some(i) = o.kept {
            self.kept[i as usize].end = end;
        }
    }

    /// Run `f` inside a span.
    pub fn within<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Self times aggregated since the last call; starts a new round.
    pub fn take_round(&mut self) -> BTreeMap<&'static str, SelfTime> {
        assert!(self.open.is_empty(), "round ended inside a span");
        self.waves_this_round = 0;
        std::mem::take(&mut self.round)
    }

    /// The kept spans as a JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::with_capacity(64 + 96 * self.kept.len());
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\
             \"kept_waves_per_round\":{KEPT_WAVES},\"spans\":["
        );
        for (id, k) in self.kept.iter().enumerate() {
            if id > 0 {
                s.push(',');
            }
            let parent = k.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "\n{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"wave\":{}}}",
                k.name, k.start, k.end, k.wave
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_the_root() {
        let mut sp = Spans::on();
        sp.enter_wave();
        sp.within("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        sp.enter("b");
        sp.within("a", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        sp.exit();
        sp.exit();
        let kept = sp.kept.len();
        let root_dur = sp.kept[0].end - sp.kept[0].start;
        let round = sp.take_round();
        assert_eq!(kept, 4);
        assert_eq!(round["a"].calls, 2);
        let total: u64 = round.values().map(|t| t.ns).sum();
        assert_eq!(total, root_dur, "self times partition the root span");
        assert!(round["b"].ns < round["a"].ns);
    }

    #[test]
    fn off_records_nothing() {
        let mut sp = Spans::off();
        sp.enter_wave();
        sp.within("a", || ());
        sp.exit();
        assert!(sp.take_round().is_empty());
        assert!(sp.kept.is_empty());
    }
}
