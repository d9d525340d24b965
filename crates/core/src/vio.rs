//! I/O helpers shared across the workspace: the vectored write loop
//! every scatter-gather socket writer uses
//! (`std::io::Write::write_all_vectored` is unstable, so the
//! partial-write loop lives here once instead of in each caller), and
//! the atomic file write behind every durable blob.

use std::fs::File;
use std::io::{self, IoSlice, Write};
use std::path::{Path, PathBuf};

/// Writes `bytes` to `path` atomically: a sibling `<name>.tmp` file is
/// written and fsynced, then renamed over `path`. A crash mid-write
/// leaves either the old file or none — never a torn one.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(tmp, path)
}

/// Writes every byte of `bufs` with `write_vectored`, advancing across
/// partial writes — the scatter-gather equivalent of `write_all`. The
/// slice list is consumed (its elements are advanced in place).
pub fn write_all_vectored<W: Write + ?Sized>(
    w: &mut W,
    mut bufs: &mut [IoSlice<'_>],
) -> io::Result<()> {
    let mut remaining: usize = bufs.iter().map(|b| b.len()).sum();
    while remaining > 0 {
        match w.write_vectored(bufs) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole vectored buffer",
                ));
            }
            Ok(n) => {
                remaining -= n.min(remaining);
                if remaining == 0 {
                    break;
                }
                IoSlice::advance_slices(&mut bufs, n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that accepts at most `cap` bytes per call and, when
    /// `vectored` is false, ignores all but the first buffer — both
    /// partial-write shapes the loop must survive.
    struct Dribble {
        out: Vec<u8>,
        cap: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut n = 0;
            for b in bufs {
                if n >= self.cap {
                    break;
                }
                let take = b.len().min(self.cap - n);
                self.out.extend_from_slice(&b[..take]);
                n += take;
            }
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn survives_partial_writes_at_every_granularity() {
        let segs: [&[u8]; 4] = [b"alpha", b"", b"beta-gamma", b"d"];
        let want: Vec<u8> = segs.concat();
        for cap in 1..=want.len() + 1 {
            let mut w = Dribble {
                out: Vec::new(),
                cap,
            };
            let mut io: Vec<IoSlice> = segs.iter().map(|s| IoSlice::new(s)).collect();
            write_all_vectored(&mut w, &mut io).unwrap();
            assert_eq!(w.out, want, "cap {cap}");
        }
    }

    #[test]
    fn empty_and_all_empty_buffer_lists_are_noops() {
        let mut w = Dribble {
            out: Vec::new(),
            cap: 8,
        };
        write_all_vectored(&mut w, &mut []).unwrap();
        let mut io = [IoSlice::new(b""), IoSlice::new(b"")];
        write_all_vectored(&mut w, &mut io).unwrap();
        assert!(w.out.is_empty());
    }
}
