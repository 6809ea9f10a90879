//! In-memory spans around the benchmark's calls into the program: rounds,
//! source transactions, ship/collect and sync. Written out at exit.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Record a finished span and return its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        round: u32,
    ) -> usize {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            round,
        });
        self.spans.len() - 1
    }

    /// Reserve a parent span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, round: u32) -> usize {
        self.record(name, start, start, None, round)
    }

    pub fn close(&mut self, idx: usize, end: Instant) {
        self.spans[idx].end_ns = end.duration_since(self.epoch).as_nanos() as u64;
    }

    /// Durations of the spans named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Self time of every span named `name`: its duration minus the part of
    /// its interval that its children cover.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let kids = &mut children[i];
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.round
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |ns: u64| t0 + Duration::from_nanos(ns);
        let mut tr = Tracer::new(t0);
        let root = tr.open("round", at(0), 0);
        tr.record("txn", at(10), at(30), Some(root), 0);
        tr.record("ship", at(25), at(50), Some(root), 0);
        tr.record("sync", at(60), at(90), Some(root), 0);
        tr.close(root, at(100));
        assert_eq!(tr.self_times("round"), vec![100 - 40 - 30]);
        assert_eq!(tr.self_times("sync"), vec![30]);
        assert_eq!(tr.durations("ship"), vec![25]);
    }
}
