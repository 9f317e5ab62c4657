//! Streams: the runtime's standard-I/O abstraction, with the paper's
//! ownership-restricted close semantics.
//!
//! The paper observes that in a multi-processing runtime "multiple
//! applications have their standard streams point to the same device"; if
//! one closes such a stream, the others lose it. Its rule: "applications may
//! only close streams that they opened. Streams that are passed to them like
//! the standard input and output streams must not be closed" (§5.1).
//!
//! We enforce this structurally: every [`InStream`]/[`OutStream`] records the
//! [`IoToken`] of the holder that opened it, and [`InStream::close`] /
//! [`OutStream::close`] demand the matching token. The application layer
//! assigns one token per application and closes only owned streams at
//! teardown.

/// In-memory blocking pipes (the shell's pipeline primitive).
pub mod pipe;

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::VmError;
use crate::Result;

pub use pipe::{
    pipe, pipe_observed, pipe_owned, pipe_traced, PipeReader, PipeWriter, DEFAULT_PIPE_CAPACITY,
};

/// Identifies the holder (application, shell, terminal, the system) that
/// opened a stream and is therefore entitled to close it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IoToken(pub u64);

impl IoToken {
    /// The runtime-internal owner used for the bootstrap streams.
    pub const SYSTEM: IoToken = IoToken(0);
}

/// A blocking byte source backing an [`InStream`]. Implementations must be
/// internally synchronized. Blocking reads should poll
/// [`crate::thread::check_interrupt`] so application teardown can unstick
/// them.
pub trait ReadDevice: Send + Sync {
    /// Reads up to `buf.len()` bytes; `Ok(0)` means end-of-file.
    ///
    /// # Errors
    ///
    /// [`VmError::Interrupted`] on interruption, [`VmError::StreamClosed`] if
    /// the device is gone, [`VmError::Io`] for device-specific failures.
    fn read(&self, buf: &mut [u8]) -> Result<usize>;

    /// Appends to `line` the bytes up to and including the next `\n`, and
    /// consumes no byte past it: whatever follows stays for the next reader
    /// (a shell's children share its stdin). Returns the bytes appended;
    /// `Ok(0)` means end-of-file. The default takes one byte per
    /// [`ReadDevice::read`]; a device that can see its buffered bytes
    /// should take the whole line per call.
    ///
    /// # Errors
    ///
    /// As [`ReadDevice::read`].
    fn read_line(&self, line: &mut Vec<u8>) -> Result<usize> {
        let mut byte = [0u8; 1];
        let start = line.len();
        while self.read(&mut byte)? == 1 {
            line.push(byte[0]);
            if byte[0] == b'\n' {
                break;
            }
        }
        Ok(line.len() - start)
    }

    /// Releases the underlying resource. Called at most once, by the stream
    /// that owns the device.
    fn close_device(&self) {}

    /// Optional downcasting hook: devices with a richer identity (e.g. a
    /// terminal, paper §6.2: "applications can retrieve a reference to the
    /// terminal object itself") return `Some(self)`.
    fn as_any(&self) -> Option<&(dyn std::any::Any + Send + Sync)> {
        None
    }
}

/// A blocking byte sink backing an [`OutStream`]. Same synchronization and
/// interruption expectations as [`ReadDevice`].
pub trait WriteDevice: Send + Sync {
    /// Writes all of `data`.
    ///
    /// # Errors
    ///
    /// As [`ReadDevice::read`].
    fn write(&self, data: &[u8]) -> Result<()>;

    /// Flushes buffered data, if the device buffers.
    ///
    /// # Errors
    ///
    /// As [`ReadDevice::read`].
    fn flush(&self) -> Result<()> {
        Ok(())
    }

    /// Releases the underlying resource. Called at most once.
    fn close_device(&self) {}
}

/// An input stream handle: a shared [`ReadDevice`] plus close-ownership.
///
/// Clones share the device *and* the closed flag (they are the same stream).
#[derive(Clone)]
pub struct InStream {
    device: Arc<dyn ReadDevice>,
    owner: IoToken,
    closed: Arc<AtomicBool>,
}

impl InStream {
    /// Wraps `device` in a stream owned by `owner`.
    pub fn new(device: Arc<dyn ReadDevice>, owner: IoToken) -> InStream {
        InStream {
            device,
            owner,
            closed: Arc::new(AtomicBool::new(false)),
        }
    }

    /// An always-empty stream (immediate end-of-file).
    pub fn null(owner: IoToken) -> InStream {
        InStream::new(Arc::new(NullDevice), owner)
    }

    /// A stream over the read end of a pipe.
    pub fn from_pipe(reader: PipeReader, owner: IoToken) -> InStream {
        InStream::new(Arc::new(PipeReadDevice(reader)), owner)
    }

    /// A stream over an in-memory byte buffer.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>, owner: IoToken) -> InStream {
        InStream::new(Arc::new(MemSource::new(bytes.into())), owner)
    }

    /// The token of the holder that opened this stream.
    pub fn owner(&self) -> IoToken {
        self.owner
    }

    /// Returns `true` once the stream has been closed.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Reads up to `buf.len()` bytes. `Ok(0)` is end-of-file.
    ///
    /// # Errors
    ///
    /// [`VmError::StreamClosed`] after close; device errors otherwise.
    pub fn read(&self, buf: &mut [u8]) -> Result<usize> {
        if self.is_closed() {
            return Err(VmError::StreamClosed);
        }
        self.device.read(buf)
    }

    /// Reads until end-of-file, returning all bytes.
    ///
    /// # Errors
    ///
    /// As [`InStream::read`].
    pub fn read_to_end(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            let n = self.read(&mut buf)?;
            if n == 0 {
                return Ok(out);
            }
            out.extend_from_slice(&buf[..n]);
        }
    }

    /// Reads one line (up to and excluding `\n`). Returns `None` at
    /// end-of-file with no buffered bytes.
    ///
    /// # Errors
    ///
    /// As [`InStream::read`].
    pub fn read_line(&self) -> Result<Option<String>> {
        if self.is_closed() {
            return Err(VmError::StreamClosed);
        }
        let mut line = Vec::new();
        if self.device.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        }
        Ok(Some(String::from_utf8(line).unwrap_or_else(|e| {
            String::from_utf8_lossy(e.as_bytes()).into_owned()
        })))
    }

    /// Closes the stream. Only the holder that opened it may close it
    /// (paper §5.1).
    ///
    /// # Errors
    ///
    /// [`VmError::NotStreamOwner`] if `by` is not the opening token.
    pub fn close(&self, by: IoToken) -> Result<()> {
        if by != self.owner {
            return Err(VmError::NotStreamOwner);
        }
        if !self.closed.swap(true, Ordering::SeqCst) {
            self.device.close_device();
        }
        Ok(())
    }

    /// Returns `true` if `other` is a handle to the same stream.
    pub fn same_stream(&self, other: &InStream) -> bool {
        Arc::ptr_eq(&self.closed, &other.closed)
    }

    /// The backing device's [`ReadDevice::as_any`] hook, for retrieving
    /// richer device identities (e.g. the terminal).
    pub fn device_any(&self) -> Option<&(dyn std::any::Any + Send + Sync)> {
        self.device.as_any()
    }
}

impl fmt::Debug for InStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InStream")
            .field("owner", &self.owner)
            .field("closed", &self.is_closed())
            .finish()
    }
}

/// An output stream handle: a shared [`WriteDevice`] plus close-ownership.
#[derive(Clone)]
pub struct OutStream {
    device: Arc<dyn WriteDevice>,
    owner: IoToken,
    closed: Arc<AtomicBool>,
}

impl OutStream {
    /// Wraps `device` in a stream owned by `owner`.
    pub fn new(device: Arc<dyn WriteDevice>, owner: IoToken) -> OutStream {
        OutStream {
            device,
            owner,
            closed: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A stream that discards everything.
    pub fn null(owner: IoToken) -> OutStream {
        OutStream::new(Arc::new(NullDevice), owner)
    }

    /// A stream over the write end of a pipe.
    pub fn from_pipe(writer: PipeWriter, owner: IoToken) -> OutStream {
        OutStream::new(Arc::new(PipeWriteDevice(writer)), owner)
    }

    /// The token of the holder that opened this stream.
    pub fn owner(&self) -> IoToken {
        self.owner
    }

    /// Returns `true` once the stream has been closed.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Writes all of `data`.
    ///
    /// # Errors
    ///
    /// [`VmError::StreamClosed`] after close; device errors otherwise.
    pub fn write(&self, data: &[u8]) -> Result<()> {
        if self.is_closed() {
            return Err(VmError::StreamClosed);
        }
        self.device.write(data)
    }

    /// Writes a string.
    ///
    /// # Errors
    ///
    /// As [`OutStream::write`].
    pub fn print(&self, text: &str) -> Result<()> {
        self.write(text.as_bytes())
    }

    /// Writes a string followed by a newline, as one device write: a
    /// writer sharing the stream (the shell, its children, background jobs)
    /// cannot land between a line and its newline.
    ///
    /// # Errors
    ///
    /// As [`OutStream::write`].
    pub fn println(&self, text: &str) -> Result<()> {
        let mut line = Vec::with_capacity(text.len() + 1);
        line.extend_from_slice(text.as_bytes());
        line.push(b'\n');
        self.write(&line)
    }

    /// Flushes the device.
    ///
    /// # Errors
    ///
    /// As [`OutStream::write`].
    pub fn flush(&self) -> Result<()> {
        if self.is_closed() {
            return Err(VmError::StreamClosed);
        }
        self.device.flush()
    }

    /// Closes the stream; owner-only, as for [`InStream::close`].
    ///
    /// # Errors
    ///
    /// [`VmError::NotStreamOwner`] if `by` is not the opening token.
    pub fn close(&self, by: IoToken) -> Result<()> {
        if by != self.owner {
            return Err(VmError::NotStreamOwner);
        }
        if !self.closed.swap(true, Ordering::SeqCst) {
            self.device.close_device();
        }
        Ok(())
    }

    /// Returns `true` if `other` is a handle to the same stream.
    pub fn same_stream(&self, other: &OutStream) -> bool {
        Arc::ptr_eq(&self.closed, &other.closed)
    }
}

impl fmt::Debug for OutStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OutStream")
            .field("owner", &self.owner)
            .field("closed", &self.is_closed())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Devices
// ---------------------------------------------------------------------------

/// `/dev/null`: reads end immediately, writes vanish.
#[derive(Debug, Default)]
pub struct NullDevice;

impl ReadDevice for NullDevice {
    fn read(&self, _buf: &mut [u8]) -> Result<usize> {
        Ok(0)
    }
}

impl WriteDevice for NullDevice {
    fn write(&self, _data: &[u8]) -> Result<()> {
        Ok(())
    }
}

/// An in-memory byte source with a cursor (for canned stdin in tests and
/// for here-strings in the shell).
#[derive(Debug)]
pub struct MemSource {
    state: Mutex<(Vec<u8>, usize)>,
}

impl MemSource {
    /// Creates a source over `bytes`.
    pub fn new(bytes: Vec<u8>) -> MemSource {
        MemSource {
            state: Mutex::new((bytes, 0)),
        }
    }
}

impl ReadDevice for MemSource {
    fn read(&self, buf: &mut [u8]) -> Result<usize> {
        let mut state = self.state.lock();
        let (data, pos) = &mut *state;
        let n = buf.len().min(data.len() - *pos);
        buf[..n].copy_from_slice(&data[*pos..*pos + n]);
        *pos += n;
        Ok(n)
    }
}

/// An in-memory byte sink that accumulates everything written (for capturing
/// application output in tests and benches).
#[derive(Debug, Default, Clone)]
pub struct MemSink {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl MemSink {
    /// Creates an empty sink.
    pub fn new() -> MemSink {
        MemSink::default()
    }

    /// Everything written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.buf.lock().clone()
    }

    /// Everything written so far, lossily decoded as UTF-8.
    pub fn contents_string(&self) -> String {
        String::from_utf8_lossy(&self.buf.lock()).into_owned()
    }

    /// Discards accumulated contents.
    pub fn clear(&self) {
        self.buf.lock().clear();
    }
}

impl WriteDevice for MemSink {
    fn write(&self, data: &[u8]) -> Result<()> {
        self.buf.lock().extend_from_slice(data);
        Ok(())
    }
}

struct PipeReadDevice(PipeReader);

impl ReadDevice for PipeReadDevice {
    fn read(&self, buf: &mut [u8]) -> Result<usize> {
        self.0.read(buf)
    }

    fn read_line(&self, line: &mut Vec<u8>) -> Result<usize> {
        self.0.read_line(line)
    }

    fn close_device(&self) {
        self.0.close();
    }
}

struct PipeWriteDevice(PipeWriter);

impl WriteDevice for PipeWriteDevice {
    fn write(&self, data: &[u8]) -> Result<()> {
        self.0.write_all(data)
    }

    fn close_device(&self) {
        self.0.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const APP_A: IoToken = IoToken(10);
    const APP_B: IoToken = IoToken(20);

    #[test]
    fn mem_source_reads_in_chunks() {
        let input = InStream::from_bytes(b"hello world".to_vec(), APP_A);
        let mut buf = [0u8; 5];
        assert_eq!(input.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf, b"hello");
        assert_eq!(input.read_to_end().unwrap(), b" world");
        assert_eq!(input.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn read_line_splits_and_signals_eof() {
        let input = InStream::from_bytes(b"one\ntwo\nthree".to_vec(), APP_A);
        assert_eq!(input.read_line().unwrap().as_deref(), Some("one"));
        assert_eq!(input.read_line().unwrap().as_deref(), Some("two"));
        assert_eq!(input.read_line().unwrap().as_deref(), Some("three"));
        assert_eq!(input.read_line().unwrap(), None);
    }

    #[test]
    fn mem_sink_captures_output() {
        let sink = MemSink::new();
        let out = OutStream::new(Arc::new(sink.clone()), APP_A);
        out.println("hello").unwrap();
        out.print("bye").unwrap();
        assert_eq!(sink.contents_string(), "hello\nbye");
        sink.clear();
        assert!(sink.contents().is_empty());
    }

    #[test]
    fn only_owner_may_close() {
        // Paper §5.1: an inherited stream must not be closable by the
        // application it was passed to.
        let sink = MemSink::new();
        let out = OutStream::new(Arc::new(sink), APP_A);
        let inherited = out.clone(); // handed to app B
        assert!(matches!(
            inherited.close(APP_B).unwrap_err(),
            VmError::NotStreamOwner
        ));
        assert!(!out.is_closed(), "foreign close attempt must not close");
        out.close(APP_A).unwrap();
        assert!(inherited.is_closed(), "clones share the closed flag");
        assert!(matches!(out.print("x").unwrap_err(), VmError::StreamClosed));
    }

    #[test]
    fn in_stream_owner_close_rules() {
        let input = InStream::from_bytes(b"data".to_vec(), APP_A);
        assert!(matches!(
            input.close(APP_B).unwrap_err(),
            VmError::NotStreamOwner
        ));
        input.close(APP_A).unwrap();
        let mut buf = [0u8; 1];
        assert!(matches!(
            input.read(&mut buf).unwrap_err(),
            VmError::StreamClosed
        ));
    }

    #[test]
    fn double_close_is_idempotent() {
        let out = OutStream::null(APP_A);
        out.close(APP_A).unwrap();
        out.close(APP_A).unwrap();
    }

    #[test]
    fn pipe_streams_connect() {
        let (w, r) = pipe(64);
        let out = OutStream::from_pipe(w, APP_A);
        let input = InStream::from_pipe(r, APP_B);
        out.println("through the pipe").unwrap();
        out.close(APP_A).unwrap(); // closes the write end -> EOF for reader
        assert_eq!(
            input.read_line().unwrap().as_deref(),
            Some("through the pipe")
        );
        assert_eq!(input.read_line().unwrap(), None);
    }

    #[test]
    fn println_lines_stay_whole_under_concurrent_writers() {
        // Two VM threads print into one shared stream, as a shell and its
        // background job do: no line may be split by the other's writes.
        const LINES: usize = 2000;
        let (w, r) = pipe(1 << 20);
        let out = OutStream::from_pipe(w, APP_A);
        let vm = crate::Vm::new();
        let start = Arc::new(std::sync::Barrier::new(2));
        let writers: Vec<_> = ["alpha", "beta"]
            .into_iter()
            .map(|tag| {
                let out = out.clone();
                let start = Arc::clone(&start);
                vm.thread_builder()
                    .name(tag)
                    .spawn(move |_| {
                        start.wait();
                        for i in 0..LINES {
                            out.println(&format!("{tag}-{i}")).unwrap();
                        }
                    })
                    .unwrap()
            })
            .collect();
        for writer in &writers {
            writer.join().unwrap();
        }
        out.close(APP_A).unwrap();
        let text = String::from_utf8(InStream::from_pipe(r, APP_B).read_to_end().unwrap()).unwrap();
        let mut next = [0usize; 2];
        for line in text.lines() {
            let (tag, i) = line.split_once('-').expect("whole line");
            let slot = match tag {
                "alpha" => 0,
                "beta" => 1,
                other => panic!("torn line {line:?} (tag {other:?})"),
            };
            assert_eq!(
                i.parse::<usize>().ok(),
                Some(next[slot]),
                "torn line {line:?}"
            );
            next[slot] += 1;
        }
        assert_eq!(next, [LINES, LINES]);
    }

    #[test]
    fn pipe_read_line_joins_a_line_split_across_writes() {
        let (w, r) = pipe(64);
        let input = InStream::from_pipe(r, APP_B);
        let writer = std::thread::spawn(move || {
            w.write_all(b"split ").unwrap();
            std::thread::sleep(std::time::Duration::from_millis(10));
            w.write_all(b"across\nnext").unwrap();
            w.close();
        });
        assert_eq!(input.read_line().unwrap().as_deref(), Some("split across"));
        assert_eq!(input.read_line().unwrap().as_deref(), Some("next"));
        assert_eq!(input.read_line().unwrap(), None);
        writer.join().unwrap();
    }

    #[test]
    fn pipe_read_line_takes_a_line_across_the_ring_seam() {
        let (w, r) = pipe(8);
        w.write_all(b"abcdef").unwrap();
        let mut buf = [0u8; 5];
        assert_eq!(r.read(&mut buf).unwrap(), 5);
        // "f" sits at index 5; "gh\nij" wraps past the end of the 8-byte ring.
        w.write_all(b"gh\nij").unwrap();
        let mut line = Vec::new();
        assert_eq!(r.read_line(&mut line).unwrap(), 4);
        assert_eq!(line, b"fgh\n");
        assert_eq!(r.available(), 2);
        w.close();
        line.clear();
        assert_eq!(r.read_line(&mut line).unwrap(), 2, "the tail ends at eof");
        assert_eq!(line, b"ij");
        assert_eq!(r.read_line(&mut line).unwrap(), 0);
    }

    #[test]
    fn pipe_read_line_leaves_the_next_lines_for_the_next_reader() {
        // A shell reads its command line; the child it starts shares the
        // same stdin and must find the bytes after the shell's `\n`.
        let (w, r) = pipe(64);
        let shell = InStream::from_pipe(r.clone(), APP_A);
        let child = InStream::from_pipe(r, APP_B);
        w.write_all(b"cat\nchild input\nrest").unwrap();
        assert_eq!(shell.read_line().unwrap().as_deref(), Some("cat"));
        let mut buf = [0u8; 6];
        assert_eq!(child.read(&mut buf).unwrap(), 6);
        assert_eq!(&buf, b"child ");
        assert_eq!(child.read_line().unwrap().as_deref(), Some("input"));
        w.close();
        assert_eq!(shell.read_line().unwrap().as_deref(), Some("rest"));
        assert_eq!(child.read_line().unwrap(), None);
    }

    #[test]
    fn null_streams() {
        let input = InStream::null(APP_A);
        let mut buf = [0u8; 8];
        assert_eq!(input.read(&mut buf).unwrap(), 0);
        let out = OutStream::null(APP_A);
        out.println("vanishes").unwrap();
        out.flush().unwrap();
    }

    #[test]
    fn same_stream_identity() {
        let a = OutStream::null(APP_A);
        let b = a.clone();
        let c = OutStream::null(APP_A);
        assert!(a.same_stream(&b));
        assert!(!a.same_stream(&c));
    }
}
