//! The application-facing file API — the `java.io.File` analogue.
//!
//! Every operation performs **two** layers of checking, exactly as the
//! paper describes:
//!
//! 1. The runtime security check (paper §3.3's `checkDelete` example): a
//!    `FilePermission` demand through the security manager, which combines
//!    code-source grants with the running user's grants (§5.3). Denial is
//!    [`Error::Security`] — a `SecurityException`.
//! 2. The O/S layer: the virtual filesystem enforces owners and mode bits
//!    against the application's running user. Denial here surfaces as
//!    [`Error::FileNotFound`] — the `FileNotFoundException` the paper notes
//!    the O/S produces for files the user may not see (§4, Feature 3).

use std::sync::Arc;

use jmp_security::{FileActions, Permission, UserId};
use jmp_vfs::{DirEntry, FileInfo, Vfs};
use jmp_vm::io::{InStream, OutStream, ReadDevice, WriteDevice};
use jmp_vm::VmError;
use parking_lot::Mutex;

use crate::application::Application;
use crate::error::Error;
use crate::runtime::MpRuntime;
use crate::Result;

struct FileCtx {
    rt: MpRuntime,
    app: Application,
}

fn ctx() -> Result<FileCtx> {
    let rt = MpRuntime::current().ok_or(Error::NotAnApplication)?;
    let app = rt.app_of_current_thread().ok_or(Error::NotAnApplication)?;
    Ok(FileCtx { rt, app })
}

impl FileCtx {
    fn absolute(&self, path: &str) -> String {
        jmp_vfs::join(&self.app.cwd(), path)
    }

    fn check(&self, path: &str, actions: FileActions) -> Result<()> {
        self.rt
            .vm()
            .check_permission(&Permission::file(path, actions))?;
        Ok(())
    }

    fn uid(&self) -> UserId {
        self.app.user().id()
    }
}

/// Resolves `path` against the current application's working directory.
///
/// # Errors
///
/// [`Error::NotAnApplication`] off-application.
pub fn absolute(path: &str) -> Result<String> {
    Ok(ctx()?.absolute(path))
}

/// Reads a whole file.
///
/// # Errors
///
/// [`Error::Security`] if the policy denies reading;
/// [`Error::FileNotFound`] if absent or O/S-hidden.
pub fn read(path: &str) -> Result<Vec<u8>> {
    let ctx = ctx()?;
    let abs = ctx.absolute(path);
    ctx.check(&abs, FileActions::READ)?;
    Ok(ctx.rt.vfs().read(&abs, ctx.uid())?)
}

/// Reads a whole file as UTF-8 (lossy).
///
/// # Errors
///
/// As [`read`].
pub fn read_string(path: &str) -> Result<String> {
    Ok(String::from_utf8_lossy(&read(path)?).into_owned())
}

/// Writes (creates or truncates) a file.
///
/// # Errors
///
/// [`Error::Security`] if the policy denies writing; O/S-layer errors as
/// [`Error::FileNotFound`].
pub fn write(path: &str, data: &[u8]) -> Result<()> {
    let ctx = ctx()?;
    let abs = ctx.absolute(path);
    ctx.check(&abs, FileActions::WRITE)?;
    Ok(ctx.rt.vfs().write(&abs, data, ctx.uid())?)
}

/// Appends to a file, creating it if absent.
///
/// # Errors
///
/// As [`write()`].
pub fn append(path: &str, data: &[u8]) -> Result<()> {
    let ctx = ctx()?;
    let abs = ctx.absolute(path);
    ctx.check(&abs, FileActions::WRITE)?;
    Ok(ctx.rt.vfs().append(&abs, data, ctx.uid())?)
}

/// Deletes a file — the paper's worked example (§3.3):
/// `securityManager.checkDelete()` guards the real deletion.
///
/// # Errors
///
/// [`Error::Security`] if the policy denies deletion; O/S-layer errors as
/// [`Error::FileNotFound`].
pub fn delete(path: &str) -> Result<()> {
    let ctx = ctx()?;
    let abs = ctx.absolute(path);
    ctx.check(&abs, FileActions::DELETE)?;
    Ok(ctx.rt.vfs().remove(&abs, ctx.uid())?)
}

/// Removes an empty directory.
///
/// # Errors
///
/// As [`delete`].
pub fn rmdir(path: &str) -> Result<()> {
    let ctx = ctx()?;
    let abs = ctx.absolute(path);
    ctx.check(&abs, FileActions::DELETE)?;
    Ok(ctx.rt.vfs().rmdir(&abs, ctx.uid())?)
}

/// Creates a directory.
///
/// # Errors
///
/// As [`write()`].
pub fn mkdir(path: &str) -> Result<()> {
    let ctx = ctx()?;
    let abs = ctx.absolute(path);
    ctx.check(&abs, FileActions::WRITE)?;
    Ok(ctx.rt.vfs().mkdir(&abs, ctx.uid())?)
}

/// Lists a directory, sorted by name.
///
/// # Errors
///
/// As [`read`].
pub fn list_dir(path: &str) -> Result<Vec<DirEntry>> {
    let ctx = ctx()?;
    let abs = ctx.absolute(path);
    ctx.check(&abs, FileActions::READ)?;
    Ok(ctx.rt.vfs().list_dir(&abs, ctx.uid())?)
}

/// Metadata for a path.
///
/// # Errors
///
/// As [`read`].
pub fn stat(path: &str) -> Result<FileInfo> {
    let ctx = ctx()?;
    let abs = ctx.absolute(path);
    ctx.check(&abs, FileActions::READ)?;
    Ok(ctx.rt.vfs().stat(&abs, ctx.uid())?)
}

/// Returns `true` if the path exists and is visible (like `File.exists`,
/// which the O/S answers `false` for hidden files).
///
/// # Errors
///
/// [`Error::Security`] if the policy denies reading the path.
pub fn exists(path: &str) -> Result<bool> {
    match stat(path) {
        Ok(_) => Ok(true),
        Err(Error::FileNotFound { .. }) => Ok(false),
        Err(other) => Err(other),
    }
}

/// Renames `from` to `to`.
///
/// # Errors
///
/// Requires delete on `from` and write on `to`; O/S-layer errors as
/// [`Error::FileNotFound`].
pub fn rename(from: &str, to: &str) -> Result<()> {
    let ctx = ctx()?;
    let from_abs = ctx.absolute(from);
    let to_abs = ctx.absolute(to);
    ctx.check(&from_abs, FileActions::DELETE)?;
    ctx.check(&to_abs, FileActions::WRITE)?;
    Ok(ctx.rt.vfs().rename(&from_abs, &to_abs, ctx.uid())?)
}

// ---------------------------------------------------------------------------
// Streaming file I/O
// ---------------------------------------------------------------------------

struct FileReadDevice {
    vfs: Arc<Vfs>,
    path: String,
    uid: UserId,
    pos: Mutex<u64>,
}

impl ReadDevice for FileReadDevice {
    fn read(&self, buf: &mut [u8]) -> jmp_vm::Result<usize> {
        let mut pos = self.pos.lock();
        let n = self
            .vfs
            .read_at(&self.path, *pos, buf, self.uid)
            .map_err(|e| VmError::Io {
                message: e.to_string(),
            })?;
        *pos += n as u64;
        Ok(n)
    }
}

struct FileWriteDevice {
    vfs: Arc<Vfs>,
    path: String,
    uid: UserId,
}

impl WriteDevice for FileWriteDevice {
    fn write(&self, data: &[u8]) -> jmp_vm::Result<()> {
        self.vfs
            .append(&self.path, data, self.uid)
            .map_err(|e| VmError::Io {
                message: e.to_string(),
            })
    }
}

/// Opens a file for streaming reads (`FileInputStream`). The stream is
/// *owned* by the current application: it is registered for closing at
/// application teardown, and only this application may close it (§5.1).
///
/// # Errors
///
/// As [`read`]; the open itself verifies the file is readable.
pub fn open_in(path: &str) -> Result<InStream> {
    let ctx = ctx()?;
    let abs = ctx.absolute(path);
    ctx.check(&abs, FileActions::READ)?;
    // Surface FileNotFound at open time, like FileInputStream's constructor.
    ctx.rt.vfs().stat(&abs, ctx.uid())?;
    let device = FileReadDevice {
        vfs: Arc::clone(ctx.rt.vfs()),
        path: abs,
        uid: ctx.uid(),
        pos: Mutex::new(0),
    };
    let stream = InStream::new(Arc::new(device), ctx.app.io_token());
    ctx.app.register_owned_in(stream.clone())?;
    Ok(stream)
}

/// Opens a file for streaming writes (`FileOutputStream`), truncating unless
/// `append_mode`. Owned by the current application, as for [`open_in`].
///
/// # Errors
///
/// As [`write()`].
pub fn open_out(path: &str, append_mode: bool) -> Result<OutStream> {
    let ctx = ctx()?;
    let abs = ctx.absolute(path);
    ctx.check(&abs, FileActions::WRITE)?;
    if append_mode {
        // Create if missing, leave contents alone.
        if ctx.rt.vfs().stat(&abs, ctx.uid()).is_err() {
            ctx.rt.vfs().write(&abs, b"", ctx.uid())?;
        }
    } else {
        ctx.rt.vfs().write(&abs, b"", ctx.uid())?;
    }
    let device = FileWriteDevice {
        vfs: Arc::clone(ctx.rt.vfs()),
        path: abs,
        uid: ctx.uid(),
    };
    let stream = OutStream::new(Arc::new(device), ctx.app.io_token());
    ctx.app.register_owned_out(stream.clone())?;
    Ok(stream)
}
