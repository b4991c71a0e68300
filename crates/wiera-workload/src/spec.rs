//! Workload mixes (the YCSB core workloads plus the paper's variants).

use crate::keychooser::KeyChooser;
use wiera_sim::SimRng;

/// One operation kind drawn from a mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Put,
    /// Read-modify-write (YCSB F): a get followed by a put of the same key.
    Rmw,
}

/// A workload: operation mix + key distribution + record shape.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Probabilities; must sum to 1.
    pub get_prop: f64,
    pub put_prop: f64,
    pub rmw_prop: f64,
    pub keys: KeyChooser,
    pub value_bytes: usize,
}

impl WorkloadSpec {
    fn mix(
        name: &'static str,
        get: f64,
        put: f64,
        rmw: f64,
        keys: KeyChooser,
        value_bytes: usize,
    ) -> Self {
        debug_assert!((get + put + rmw - 1.0).abs() < 1e-9);
        WorkloadSpec {
            name,
            get_prop: get,
            put_prop: put,
            rmw_prop: rmw,
            keys,
            value_bytes,
        }
    }

    /// YCSB A: update heavy, 50 % read / 50 % update, zipfian (§5.1).
    pub fn ycsb_a(records: usize, value_bytes: usize) -> Self {
        Self::mix(
            "ycsb-a",
            0.5,
            0.5,
            0.0,
            KeyChooser::zipfian(records),
            value_bytes,
        )
    }

    /// YCSB C: read only.
    pub fn ycsb_c(records: usize, value_bytes: usize) -> Self {
        Self::mix(
            "ycsb-c",
            1.0,
            0.0,
            0.0,
            KeyChooser::zipfian(records),
            value_bytes,
        )
    }

    /// YCSB F: read-modify-write.
    pub fn ycsb_f(records: usize, value_bytes: usize) -> Self {
        Self::mix(
            "ycsb-f",
            0.5,
            0.0,
            0.5,
            KeyChooser::zipfian(records),
            value_bytes,
        )
    }

    /// §5.2's mix: "Read mostly workload (5 % put and 95 % get)".
    pub fn read_mostly(records: usize, value_bytes: usize) -> Self {
        Self::mix(
            "read-mostly",
            0.95,
            0.05,
            0.0,
            KeyChooser::zipfian(records),
            value_bytes,
        )
    }

    /// Draw the next operation kind.
    pub fn next_op(&self, rng: &mut SimRng) -> OpKind {
        let u = rng.gen_range_f64(0.0, 1.0);
        if u < self.get_prop {
            OpKind::Get
        } else if u < self.get_prop + self.put_prop {
            OpKind::Put
        } else {
            OpKind::Rmw
        }
    }

    /// Draw the next key.
    pub fn next_key(&self, rng: &mut SimRng) -> String {
        format!("user{:08}", self.keys.next(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_respect_proportions() {
        let spec = WorkloadSpec::read_mostly(100, 64);
        let mut rng = SimRng::new(5);
        let mut puts = 0;
        let n = 20_000;
        for _ in 0..n {
            if spec.next_op(&mut rng) == OpKind::Put {
                puts += 1;
            }
        }
        let frac = puts as f64 / n as f64;
        assert!((frac - 0.05).abs() < 0.01, "put fraction {frac}");
    }

    #[test]
    fn ycsb_a_is_half_and_half() {
        let spec = WorkloadSpec::ycsb_a(100, 64);
        let mut rng = SimRng::new(6);
        let mut gets = 0;
        let n = 20_000;
        for _ in 0..n {
            if spec.next_op(&mut rng) == OpKind::Get {
                gets += 1;
            }
        }
        let frac = gets as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "get fraction {frac}");
    }

    #[test]
    fn ycsb_c_never_writes() {
        let spec = WorkloadSpec::ycsb_c(10, 64);
        let mut rng = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(spec.next_op(&mut rng), OpKind::Get);
        }
    }

    #[test]
    fn ycsb_f_mixes_rmw() {
        let spec = WorkloadSpec::ycsb_f(10, 64);
        let mut rng = SimRng::new(8);
        assert!((0..1000).any(|_| spec.next_op(&mut rng) == OpKind::Rmw));
    }

    #[test]
    fn keys_are_stable_format() {
        let spec = WorkloadSpec::ycsb_a(10, 64);
        let mut rng = SimRng::new(9);
        let k = spec.next_key(&mut rng);
        assert!(k.starts_with("user"));
        assert_eq!(k.len(), 12);
    }
}
