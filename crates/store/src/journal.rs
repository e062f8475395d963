//! The write-ahead journal: one JSON line per event, append-only.
//!
//! Opening a journal replays its **valid prefix**: lines are parsed in
//! order and accepted while they decode and their epochs strictly
//! increase; the first malformed or unterminated line ends the prefix
//! and everything after it is treated as a torn tail. The file is then
//! truncated back to the prefix boundary so subsequent appends never
//! concatenate onto garbage.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::{FsyncPolicy, Result, Stamped};

/// An open, append-positioned journal of `E` records.
#[derive(Debug)]
pub struct Journal<E> {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    /// Current on-disk length (valid bytes only).
    len: u64,
    /// Lifetime bytes appended through this handle.
    bytes_written: u64,
    /// Lifetime fsync calls through this handle.
    fsyncs: u64,
    _marker: PhantomData<E>,
}

impl<E: Serialize + Deserialize + Stamped> Journal<E> {
    /// Open `path` (creating it if absent), replay the valid prefix,
    /// truncate any torn tail, and position for appends. Returns the
    /// journal and the recovered events, oldest first.
    pub fn open(path: &Path, policy: FsyncPolicy) -> Result<(Self, Vec<E>)> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let (events, valid) = Self::valid_prefix(&bytes);
        let mut file = OpenOptions::new().create(true).truncate(false).write(true).open(path)?;
        if valid as u64 != bytes.len() as u64 {
            file.set_len(valid as u64)?;
        }
        file.seek(SeekFrom::Start(valid as u64))?;
        let journal = Journal {
            file,
            path: path.to_path_buf(),
            policy,
            len: valid as u64,
            bytes_written: 0,
            fsyncs: 0,
            _marker: PhantomData,
        };
        Ok((journal, events))
    }

    /// Decode the longest valid prefix of a journal image: events in
    /// order plus the byte offset the prefix ends at.
    fn valid_prefix(bytes: &[u8]) -> (Vec<E>, usize) {
        let mut events = Vec::new();
        let mut offset = 0usize;
        let mut last_epoch = 0u64;
        while let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') {
            let Ok(text) = std::str::from_utf8(&bytes[offset..offset + nl]) else { break };
            let Ok(event) = serde_json::from_str::<E>(text) else { break };
            if event.epoch() <= last_epoch {
                break;
            }
            last_epoch = event.epoch();
            events.push(event);
            offset += nl + 1;
        }
        (events, offset)
    }

    /// Append one event as a single `write(2)` (line + newline), then
    /// fsync per the policy. The event is in the kernel's page cache
    /// when this returns — durable against process death; durable
    /// against machine crashes when the policy synced. On error the
    /// file is cut back to its last whole line, so a refused event
    /// never surfaces on recovery and the next append starts clean.
    pub fn append(&mut self, event: &E) -> Result<()> {
        let mut line =
            serde_json::to_string(event).map_err(|e| crate::StoreError::Serde(e.to_string()))?;
        line.push('\n');
        let sync = match self.policy {
            FsyncPolicy::PerEvent => true,
            FsyncPolicy::PerEpoch { every } => event.epoch().is_multiple_of(every),
            FsyncPolicy::Off => false,
        };
        if let Err(e) = self.write_line(line.as_bytes(), sync) {
            // Best effort: should the cut fail too, the seek alone
            // makes the next append overwrite the refused bytes.
            let _ = self.file.set_len(self.len);
            let _ = self.file.seek(SeekFrom::Start(self.len));
            return Err(e);
        }
        self.len += line.len() as u64;
        self.bytes_written += line.len() as u64;
        Ok(())
    }

    fn write_line(&mut self, line: &[u8], sync: bool) -> Result<()> {
        self.file.write_all(line)?;
        if sync {
            self.sync()?;
        }
        Ok(())
    }

    /// Force outstanding appends to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        self.fsyncs += 1;
        Ok(())
    }

    /// Truncate to empty (post-compaction: the snapshot now covers
    /// everything) and sync the truncation.
    pub fn reset(&mut self) -> Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.len = 0;
        self.sync()
    }

    /// Current on-disk length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Lifetime bytes appended through this handle.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Lifetime fsync calls through this handle.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Ev {
        epoch: u64,
        x: f64,
    }

    impl Stamped for Ev {
        fn epoch(&self) -> u64 {
            self.epoch
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gridvo-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_reopen_round_trips() {
        let dir = scratch("round-trip");
        let path = dir.join("journal.log");
        let events: Vec<Ev> = (1..=5).map(|e| Ev { epoch: e, x: 0.125 * e as f64 }).collect();
        {
            let (mut j, recovered) = Journal::<Ev>::open(&path, FsyncPolicy::PerEvent).unwrap();
            assert!(recovered.is_empty());
            for e in &events {
                j.append(e).unwrap();
            }
            assert_eq!(j.fsyncs(), 5);
        }
        let (j, recovered) = Journal::<Ev>::open(&path, FsyncPolicy::Off).unwrap();
        assert_eq!(recovered, events);
        assert_eq!(j.len_bytes(), std::fs::metadata(&path).unwrap().len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let dir = scratch("torn");
        let path = dir.join("journal.log");
        {
            let (mut j, _) = Journal::<Ev>::open(&path, FsyncPolicy::Off).unwrap();
            for e in 1..=3 {
                j.append(&Ev { epoch: e, x: e as f64 }).unwrap();
            }
        }
        // Simulate a torn write: append half a record with no newline.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, [&full[..], b"{\"epoch\":4,\"x\""].concat()).unwrap();

        let (mut j, recovered) = Journal::<Ev>::open(&path, FsyncPolicy::Off).unwrap();
        assert_eq!(recovered.len(), 3, "torn final line must be discarded");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full.len() as u64, "tail truncated");
        // Appending after repair yields a parseable journal again.
        j.append(&Ev { epoch: 4, x: 4.0 }).unwrap();
        drop(j);
        let (_, recovered) = Journal::<Ev>::open(&path, FsyncPolicy::Off).unwrap();
        assert_eq!(recovered.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_monotone_epochs_end_the_valid_prefix() {
        let dir = scratch("monotone");
        let path = dir.join("journal.log");
        std::fs::write(&path, "{\"epoch\":1,\"x\":1.0}\n{\"epoch\":1,\"x\":2.0}\n").unwrap();
        let (_, recovered) = Journal::<Ev>::open(&path, FsyncPolicy::Off).unwrap();
        assert_eq!(recovered.len(), 1, "a repeated epoch must end the prefix");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_empties_the_journal() {
        let dir = scratch("reset");
        let path = dir.join("journal.log");
        let (mut j, _) = Journal::<Ev>::open(&path, FsyncPolicy::Off).unwrap();
        j.append(&Ev { epoch: 1, x: 1.0 }).unwrap();
        j.reset().unwrap();
        assert_eq!(j.len_bytes(), 0);
        j.append(&Ev { epoch: 2, x: 2.0 }).unwrap();
        drop(j);
        let (_, recovered) = Journal::<Ev>::open(&path, FsyncPolicy::Off).unwrap();
        assert_eq!(recovered, vec![Ev { epoch: 2, x: 2.0 }]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
