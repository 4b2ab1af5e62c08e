//! Binary trace-file container.
//!
//! Layout: an 8-byte magic (`MARTRC01`) followed by fixed-size 32-byte
//! little-endian [`TraceEvent`] records (see [`TraceEvent::encode`]). The
//! format has no timestamps, hostnames or other ambient state, so two
//! deterministic runs of the same seed produce byte-identical files —
//! which is what makes `marnet-trace diff` meaningful.
//!
//! Writes go through [`write_atomic`], which `marnet-lab` also uses for
//! its artifacts: readers never observe a half-written file, and no two
//! targets share a staging file.

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

use crate::event::TraceEvent;

/// File magic: "MARTRC" + 2-digit format version.
pub const MAGIC: &[u8; 8] = b"MARTRC01";

/// Encodes `events` into the trace-file byte format (magic + records).
pub fn encode(events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + events.len() * TraceEvent::ENCODED_LEN);
    out.extend_from_slice(MAGIC);
    for ev in events {
        out.extend_from_slice(&ev.encode());
    }
    out
}

/// Decodes a trace file's bytes. Rejects a missing/wrong magic, a body
/// that is not a whole number of records, and records with unknown kinds.
/// The records come back as written, so `decode(&encode(x)) == x`; readers
/// pass them through [`crate::expand`].
pub fn decode(bytes: &[u8]) -> io::Result<Vec<TraceEvent>> {
    let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let body = bytes
        .strip_prefix(MAGIC.as_slice())
        .ok_or_else(|| invalid("not a marnet trace file (bad magic; expected MARTRC01)"))?;
    if body.len() % TraceEvent::ENCODED_LEN != 0 {
        return Err(invalid("truncated trace file (body is not a whole number of records)"));
    }
    let mut events = Vec::with_capacity(body.len() / TraceEvent::ENCODED_LEN);
    for chunk in body.chunks_exact(TraceEvent::ENCODED_LEN) {
        events.push(
            TraceEvent::decode(chunk).ok_or_else(|| invalid("unknown event kind in trace file"))?,
        );
    }
    Ok(events)
}

/// Writes `events` to `path` atomically (see [`write_atomic`]).
pub fn write_file(path: &Path, events: &[TraceEvent]) -> io::Result<()> {
    write_atomic(path, &encode(events))
}

/// Writes `bytes` to `path` atomically, creating parent directories as
/// needed: the bytes land in a hidden `.{file_name}.tmp` sibling, are
/// flushed to disk, and the sibling is renamed into place. A crash leaves
/// either the old file or the whole new one, never an empty or truncated
/// file under the final name.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = path.with_file_name(format!(".{}.tmp", file_name.to_string_lossy()));
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    fs::create_dir_all(dir)?;
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // The rename is durable only once the directory entry is.
    #[cfg(unix)]
    fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// Reads and decodes the trace file at `path`.
pub fn read_file(path: &Path) -> io::Result<Vec<TraceEvent>> {
    decode(&fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{component, DropReason};

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::packet_enqueue(10, component::link(0), 1, 7, 1200, 2),
            TraceEvent::packet_drop(20, component::link(0), DropReason::QueueFull, 2, 7, 600),
            TraceEvent::packet_dequeue(30, component::link(0), 1, 20),
            TraceEvent::packet_deliver(40, component::actor(3), 1, 7, 1200),
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        let events = sample();
        let bytes = encode(&events);
        assert_eq!(bytes.len(), 8 + 4 * TraceEvent::ENCODED_LEN);
        assert_eq!(decode(&bytes).unwrap(), events);
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = encode(&[]);
        assert_eq!(bytes, MAGIC);
        assert!(decode(&bytes).unwrap().is_empty());
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert!(decode(b"NOTATRACE").is_err());
        assert!(decode(b"").is_err());
        let mut bytes = encode(&sample());
        bytes.pop();
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn file_round_trip_is_byte_identical() {
        let dir = std::env::temp_dir().join("marnet-telemetry-file-test");
        let path = dir.join("a.trc");
        let events = sample();
        write_file(&path, &events).unwrap();
        write_file(&dir.join("b.trc"), &events).unwrap();
        assert_eq!(read_file(&path).unwrap(), events);
        assert_eq!(fs::read(&path).unwrap(), fs::read(dir.join("b.trc")).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_stem_traces_do_not_share_a_staging_file() {
        // `run.tmp` is a target like any other, and the name an
        // extension-swapping staging file of its two siblings would take.
        let dir = std::env::temp_dir().join("marnet-telemetry-stem-test");
        let _ = fs::remove_dir_all(&dir);
        let events = sample();
        let names = ["run.bin", "run.tmp", "run.trc"];
        for (i, name) in names.iter().enumerate() {
            write_file(&dir.join(name), &events[..=i]).unwrap();
        }
        for (i, name) in names.iter().enumerate() {
            assert_eq!(read_file(&dir.join(name)).unwrap(), events[..=i], "{name}");
        }
        let mut left: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(left, names, "no staging file may be left behind");
        let _ = fs::remove_dir_all(&dir);
    }
}
