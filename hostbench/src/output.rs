//! The checked output of one benchmark operation, and the pinned
//! references it is compared against.
//!
//! An output is written as one line of `key=value` fields so references can
//! be pinned in a text file (`src/reference.txt`) and compared bit for bit:
//! float results are stored as their IEEE-754 bit patterns.

use fastgl_core::trainer::ConvergenceRun;
use fastgl_core::EpochStats;
use std::fmt;

/// The seed whose references are pinned: the experiment binaries' default
/// seed, so the pinned simulated epochs are the ones `fig09_overall` runs.
pub const PINNED_SEED: u64 = 0xFA57;

/// The pinned references, one [`Output`] line per checked operation.
const PINNED: &str = include_str!("reference.txt");

/// What one operation produced, reduced to the fields that are checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// One simulated epoch of a training system.
    Sim {
        /// Epoch index the system ran.
        epoch: u64,
        /// Simulated sample-phase time, ns.
        sample_ns: u64,
        /// Simulated memory-IO-phase time, ns.
        io_ns: u64,
        /// Simulated computation-phase time, ns.
        compute_ns: u64,
        /// Mini-batches trained.
        iterations: u64,
        /// Neighbour draws.
        edges_sampled: u64,
        /// Feature rows loaded over PCIe.
        rows_loaded: u64,
        /// Feature rows reused by Match.
        rows_reused: u64,
        /// Feature rows served by the device cache.
        rows_cached: u64,
        /// Feature bytes moved host to device.
        bytes_h2d: u64,
    },
    /// One epoch of real training from a fresh initialisation.
    Train {
        /// Bit patterns of every iteration's loss, in execution order.
        losses: Vec<u32>,
        /// Bit pattern of the final training accuracy.
        accuracy: u64,
    },
}

impl Output {
    /// The checked fields of a simulated epoch.
    pub fn sim(epoch: u64, s: &EpochStats) -> Self {
        Output::Sim {
            epoch,
            sample_ns: s.breakdown.sample.as_nanos(),
            io_ns: s.breakdown.io.as_nanos(),
            compute_ns: s.breakdown.compute.as_nanos(),
            iterations: s.iterations,
            edges_sampled: s.edges_sampled,
            rows_loaded: s.rows_loaded,
            rows_reused: s.rows_reused,
            rows_cached: s.rows_cached,
            bytes_h2d: s.bytes_h2d,
        }
    }

    /// The checked fields of a training run.
    pub fn train(run: &ConvergenceRun) -> Self {
        Output::Train {
            losses: run.iteration_losses.iter().map(|l| l.to_bits()).collect(),
            accuracy: run.final_accuracy.to_bits(),
        }
    }

    /// Mini-batches the operation completed.
    pub fn batches(&self) -> u64 {
        match self {
            Output::Sim { iterations, .. } => *iterations,
            Output::Train { losses, .. } => losses.len() as u64,
        }
    }

    /// Parses one line written by [`Output`]'s `Display`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn parse(line: &str) -> Result<Self, String> {
        let fields: Vec<(&str, &str)> = line
            .split_whitespace()
            .map(|f| f.split_once('=').ok_or(format!("field `{f}` has no `=`")))
            .collect::<Result<_, _>>()?;
        let get = |key: &str| -> Result<&str, String> {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| *v)
                .ok_or(format!("missing field `{key}`"))
        };
        let num = |key: &str| -> Result<u64, String> {
            get(key)?.parse().map_err(|e| format!("field `{key}`: {e}"))
        };
        let hex = |v: &str| u64::from_str_radix(v, 16).map_err(|e| format!("`{v}`: {e}"));
        if fields.iter().any(|(k, _)| *k == "losses") {
            let losses = get("losses")?
                .split(',')
                .map(|v| u32::from_str_radix(v, 16).map_err(|e| format!("`{v}`: {e}")))
                .collect::<Result<_, _>>()?;
            return Ok(Output::Train {
                losses,
                accuracy: hex(get("accuracy")?)?,
            });
        }
        Ok(Output::Sim {
            epoch: num("epoch")?,
            sample_ns: num("sample_ns")?,
            io_ns: num("io_ns")?,
            compute_ns: num("compute_ns")?,
            iterations: num("iterations")?,
            edges_sampled: num("edges_sampled")?,
            rows_loaded: num("rows_loaded")?,
            rows_reused: num("rows_reused")?,
            rows_cached: num("rows_cached")?,
            bytes_h2d: num("bytes_h2d")?,
        })
    }
}

impl fmt::Display for Output {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Output::Sim {
                epoch,
                sample_ns,
                io_ns,
                compute_ns,
                iterations,
                edges_sampled,
                rows_loaded,
                rows_reused,
                rows_cached,
                bytes_h2d,
            } => write!(
                f,
                "epoch={epoch} sample_ns={sample_ns} io_ns={io_ns} compute_ns={compute_ns} \
                 iterations={iterations} edges_sampled={edges_sampled} \
                 rows_loaded={rows_loaded} rows_reused={rows_reused} \
                 rows_cached={rows_cached} bytes_h2d={bytes_h2d}"
            ),
            Output::Train { losses, accuracy } => {
                let losses: Vec<String> = losses.iter().map(|b| format!("{b:08x}")).collect();
                write!(f, "losses={} accuracy={accuracy:016x}", losses.join(","))
            }
        }
    }
}

/// The pinned reference outputs of `workload` at `seed`, in operation
/// order, or `None` when that seed has no pin.
///
/// # Panics
///
/// Panics if the pinned file is malformed (a defect of this crate).
pub fn pinned_reference(workload: &str, seed: u64) -> Option<Vec<Output>> {
    if seed != PINNED_SEED {
        return None;
    }
    let outputs: Vec<Output> = PINNED
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .filter(|(name, _)| *name == workload)
        .map(|(_, rest)| Output::parse(rest).expect("pinned reference line parses"))
        .collect();
    (!outputs.is_empty()).then_some(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let sim = Output::Sim {
            epoch: 3,
            sample_ns: 1,
            io_ns: 2,
            compute_ns: 3,
            iterations: 4,
            edges_sampled: 5,
            rows_loaded: 6,
            rows_reused: 7,
            rows_cached: 8,
            bytes_h2d: 9,
        };
        let train = Output::Train {
            losses: vec![1.5f32.to_bits(), 0.25f32.to_bits()],
            accuracy: 0.75f64.to_bits(),
        };
        for out in [sim, train] {
            assert_eq!(Output::parse(&out.to_string()).unwrap(), out);
        }
        assert!(Output::parse("epoch=1").is_err());
        assert!(Output::parse("losses=zz accuracy=0").is_err());
    }

    #[test]
    fn only_the_pinned_seed_has_references() {
        for w in crate::Workload::ALL {
            assert!(pinned_reference(w.name(), PINNED_SEED).is_some(), "{w}");
            assert!(pinned_reference(w.name(), PINNED_SEED + 1).is_none());
        }
    }
}
