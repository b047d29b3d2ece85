//! Checkpoint/resume journal: an append-only JSONL sidecar (`<out>.journal`)
//! holding one completed sweep cell per line.
//!
//! The sweep drivers append each finished [`SweepRow`] as soon as it
//! completes; a run that dies (OOM kill, power loss, Ctrl-C) can then be
//! relaunched with `--resume`, which replays the journaled cells verbatim
//! and runs only the remainder before writing the final JSON exactly as an
//! uninterrupted run would. Replay is bit-identical: the compact JSON
//! printer uses shortest-roundtrip `f64` formatting, so a parsed-back row
//! equals the row that was written.
//!
//! Each line is keyed by `(workload, algorithm, assignment, noise, level,
//! seed, reps)` — everything that determines a cell's result besides
//! wall-clock timing. Rows recorded under a different `--seed` or
//! repetition count are ignored on resume, as is a trailing partial line
//! from an interrupted write.

use crate::figures::SweepRow;
use graphalign_json::{Json, ToJson};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::path::{Path, PathBuf};

/// Identity of one sweep cell, exact under resume (`level` is compared by
/// bit pattern, `seed` is stored as a string so 64-bit seeds survive the
/// JSON number type).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Workload label (graph model or dataset name).
    pub workload: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Assignment method label.
    pub assignment: String,
    /// Noise model label.
    pub noise: String,
    /// Bit pattern of the noise level (`f64::to_bits`).
    pub level_bits: u64,
    /// Base RNG seed of the run.
    pub seed: u64,
    /// Repetitions the policy asked for (not the count actually attempted:
    /// feasibility-skipped cells record 0 attempts but keep this key).
    pub reps: usize,
}

impl CellKey {
    /// Builds the key for one cell of a sweep.
    pub fn new(
        workload: &str,
        algorithm: &str,
        assignment: &str,
        noise: &str,
        level: f64,
        seed: u64,
        reps: usize,
    ) -> Self {
        Self {
            workload: workload.into(),
            algorithm: algorithm.into(),
            assignment: assignment.into(),
            noise: noise.into(),
            level_bits: level.to_bits(),
            seed,
            reps,
        }
    }
}

/// The append-only journal behind one `--out` file.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    completed: HashMap<CellKey, SweepRow>,
}

impl Journal {
    /// The journal path for an output file: `<out>.journal`.
    pub fn path_for(out: &Path) -> PathBuf {
        let mut os = out.as_os_str().to_os_string();
        os.push(".journal");
        PathBuf::from(os)
    }

    /// Starts a fresh journal (truncating any stale one from an earlier
    /// run, so a non-resume run never mixes epochs).
    ///
    /// # Errors
    /// Propagates file-creation failures.
    pub fn fresh(out: &Path) -> std::io::Result<Self> {
        let path = Self::path_for(out);
        let file = File::create(&path)?;
        Ok(Self { path, file, completed: HashMap::new() })
    }

    /// Opens the journal for `--resume`: loads every completed cell recorded
    /// under `seed`, then reopens for appending. A missing journal file is
    /// not an error (resume of a run that died before its first cell).
    ///
    /// Malformed lines (an interrupted write leaves at most one, at the
    /// end) and rows from other seeds or repetition counts are skipped with
    /// a warning.
    ///
    /// # Errors
    /// Propagates I/O failures other than the journal not existing.
    pub fn resume(out: &Path, seed: u64) -> std::io::Result<Self> {
        let path = Self::path_for(out);
        let mut completed = HashMap::new();
        match File::open(&path) {
            Ok(f) => {
                for (idx, line) in BufReader::new(f).lines().enumerate() {
                    let line = line?;
                    if line.trim().is_empty() {
                        continue;
                    }
                    match parse_line(&line) {
                        Some((key, row)) if key.seed == seed => {
                            completed.insert(key, row);
                        }
                        Some((key, _)) => eprintln!(
                            "warning: {}:{}: journaled under seed {}, this run uses {} — ignoring",
                            path.display(),
                            idx + 1,
                            key.seed,
                            seed
                        ),
                        None => eprintln!(
                            "warning: {}:{}: unreadable journal line (interrupted write?) — ignoring",
                            path.display(),
                            idx + 1
                        ),
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self { path, file, completed })
    }

    /// Where this journal lives on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of completed cells loaded or recorded so far.
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// Whether no cells are journaled yet.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// The journaled row for `key`, when that cell already completed.
    pub fn lookup(&self, key: &CellKey) -> Option<&SweepRow> {
        self.completed.get(key)
    }

    /// Appends one completed cell and flushes, so the row survives even if
    /// the process dies immediately after.
    ///
    /// # Errors
    /// Propagates write failures (callers treat these as fatal: a journal
    /// that silently drops rows defeats its purpose).
    pub fn record(&mut self, key: CellKey, row: &SweepRow) -> std::io::Result<()> {
        let mut members = vec![
            ("journal_seed".to_string(), Json::Str(key.seed.to_string())),
            ("journal_reps".to_string(), key.reps.to_json()),
        ];
        match row.to_json() {
            Json::Obj(fields) => members.extend(fields),
            other => members.push(("row".to_string(), other)),
        }
        let line = Json::Obj(members).to_string_compact();
        writeln!(self.file, "{line}")?;
        self.file.flush()?;
        self.completed.insert(key, row.clone());
        Ok(())
    }
}

fn parse_line(line: &str) -> Option<(CellKey, SweepRow)> {
    let v = graphalign_json::from_str(line).ok()?;
    let seed: u64 = v.get("journal_seed")?.as_str()?.parse().ok()?;
    let reps = v.get("journal_reps")?.as_f64()? as usize;
    let row = SweepRow::from_json(&v)?;
    let key = CellKey::new(
        &row.workload,
        &row.cell.algorithm,
        &row.cell.assignment,
        &row.noise,
        row.level,
        seed,
        reps,
    );
    Some((key, row))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::CellResult;

    fn sample_row(workload: &str, level: f64) -> SweepRow {
        let mut cell = CellResult::skipped("IsoRank", "JV");
        cell.skipped = false;
        cell.error_class = None;
        cell.reps = 3;
        cell.reps_ok = 3;
        cell.accuracy = Some(0.8125);
        cell.seconds = Some(0.0123456789);
        cell.wall_clock = 0.5;
        SweepRow { workload: workload.into(), noise: "One-Way".into(), level, cell }
    }

    #[test]
    fn journal_round_trips_rows_bit_identically() {
        let dir = std::env::temp_dir().join(format!("ga-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("sweep.json");
        let row = sample_row("ER", 0.05);
        let key = CellKey::new("ER", "IsoRank", "JV", "One-Way", 0.05, 7, 3);
        {
            let mut j = Journal::fresh(&out).unwrap();
            j.record(key.clone(), &row).unwrap();
        }
        let j = Journal::resume(&out, 7).unwrap();
        assert_eq!(j.len(), 1);
        let back = j.lookup(&key).expect("row journaled");
        assert_eq!(
            graphalign_json::to_string_compact(back),
            graphalign_json::to_string_compact(&row),
            "replayed row must serialize identically"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_skips_other_seeds_and_partial_lines() {
        let dir = std::env::temp_dir().join(format!("ga-journal-p-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("sweep.json");
        {
            let mut j = Journal::fresh(&out).unwrap();
            j.record(
                CellKey::new("ER", "IsoRank", "JV", "One-Way", 0.0, 1, 3),
                &sample_row("ER", 0.0),
            )
            .unwrap();
        }
        // Simulate an interrupted write: a torn final line.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(Journal::path_for(&out)).unwrap();
            write!(f, "{{\"journal_seed\":\"1\",\"journal_re").unwrap();
        }
        // Different seed sees nothing; same seed sees the one good row.
        assert!(Journal::resume(&out, 2).unwrap().is_empty());
        assert_eq!(Journal::resume(&out, 1).unwrap().len(), 1);
        // Fresh truncates.
        assert!(Journal::fresh(&out).unwrap().is_empty());
        assert!(Journal::resume(&out, 1).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_journal_resumes_empty() {
        let out = std::env::temp_dir().join("ga-journal-definitely-missing.json");
        let j = Journal::resume(&out, 3).unwrap();
        assert!(j.is_empty());
        std::fs::remove_file(Journal::path_for(&out)).ok();
    }
}
