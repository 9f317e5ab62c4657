use std::collections::{BTreeMap, HashMap};
use std::fmt;

use jmp_security::UserId;
use parking_lot::RwLock;

use crate::error::VfsError;
use crate::mode::Mode;
use crate::path::{basename, components, dirname, normalize};
use crate::Result;

/// The uid that bypasses all mode-bit checks, like Unix root. This is the
/// id of the `system` account created by
/// [`UserRegistry::with_users`](jmp_security::UserRegistry::with_users).
const SUPERUSER: UserId = UserId(0);

type NodeId = u64;
const ROOT: NodeId = 0;

/// Whether a node is a file or a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// A regular file holding bytes.
    File,
    /// A directory holding named entries.
    Directory,
}

impl fmt::Display for FileKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileKind::File => write!(f, "file"),
            FileKind::Directory => write!(f, "dir"),
        }
    }
}

/// Metadata snapshot for a filesystem node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileInfo {
    /// File or directory.
    pub kind: FileKind,
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// Owning user.
    pub owner: UserId,
    /// Mode bits.
    pub mode: Mode,
    /// Logical modification time (monotone counter, not wall-clock).
    pub mtime: u64,
}

/// One entry of a directory listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (final path component).
    pub name: String,
    /// Metadata of the entry.
    pub info: FileInfo,
}

#[derive(Debug)]
enum NodeKind {
    File(Vec<u8>),
    Dir(BTreeMap<String, NodeId>),
}

#[derive(Debug)]
struct Node {
    kind: NodeKind,
    owner: UserId,
    mode: Mode,
    mtime: u64,
}

impl Node {
    fn kind(&self) -> FileKind {
        match self.kind {
            NodeKind::File(_) => FileKind::File,
            NodeKind::Dir(_) => FileKind::Directory,
        }
    }

    fn size(&self) -> u64 {
        match &self.kind {
            NodeKind::File(data) => data.len() as u64,
            NodeKind::Dir(_) => 0,
        }
    }

    fn info(&self) -> FileInfo {
        FileInfo {
            kind: self.kind(),
            size: self.size(),
            owner: self.owner,
            mode: self.mode,
            mtime: self.mtime,
        }
    }

    fn allows(&self, user: UserId, check: fn(crate::mode::Rwx) -> bool) -> bool {
        user == SUPERUSER || check(self.mode.class(user == self.owner))
    }
}

#[derive(Debug)]
struct State {
    nodes: HashMap<NodeId, Node>,
    next_id: NodeId,
    clock: u64,
}

impl State {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn node(&self, id: NodeId) -> &Node {
        self.nodes.get(&id).expect("node ids are never dangling")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes
            .get_mut(&id)
            .expect("node ids are never dangling")
    }

    /// Walks `path`, enforcing traverse (`x`) permission on every directory
    /// *leading to* the final component (not on the final node itself).
    fn resolve(&self, path: &str, user: UserId) -> Result<NodeId> {
        let mut current = ROOT;
        let comps: Vec<&str> = components(path).collect();
        for (i, comp) in comps.iter().enumerate() {
            let node = self.node(current);
            let dir = match &node.kind {
                NodeKind::Dir(entries) => entries,
                NodeKind::File(_) => {
                    return Err(VfsError::NotADirectory {
                        path: prefix_of(path, i),
                    })
                }
            };
            if !node.allows(user, |m| m.execute) {
                return Err(VfsError::denied(prefix_of(path, i), "traverse"));
            }
            current = *dir
                .get(*comp)
                .ok_or_else(|| VfsError::not_found(prefix_of(path, i + 1)))?;
        }
        Ok(current)
    }

    /// Resolves the parent directory of `path` and returns
    /// `(parent_id, final_component)`.
    fn resolve_parent<'p>(&self, path: &'p str, user: UserId) -> Result<(NodeId, &'p str)> {
        let name = basename(path);
        if name.is_empty() {
            return Err(VfsError::InvalidPath { path: path.into() });
        }
        let parent = self.resolve(dirname(path), user)?;
        match self.node(parent).kind {
            NodeKind::Dir(_) => Ok((parent, name)),
            NodeKind::File(_) => Err(VfsError::NotADirectory {
                path: dirname(path).to_string(),
            }),
        }
    }
}

fn prefix_of(path: &str, n_components: usize) -> String {
    let comps: Vec<&str> = components(path).take(n_components).collect();
    if comps.is_empty() {
        "/".to_string()
    } else {
        format!("/{}", comps.join("/"))
    }
}

/// The in-memory filesystem. Internally synchronized; share via `Arc`.
///
/// Every operation takes the [`UserId`] it is performed *as* and enforces
/// Unix-style mode bits: read/write on the node itself, write on the parent
/// directory for create/delete, execute (traverse) on every directory along
/// the path. [`UserId(0)`](jmp_security::UserId) bypasses all checks.
#[derive(Debug)]
pub struct Vfs {
    state: RwLock<State>,
}

impl Default for Vfs {
    fn default() -> Vfs {
        Vfs::new()
    }
}

impl Vfs {
    /// Creates a filesystem containing only a root directory owned by the
    /// superuser with mode `rwxr-x`.
    pub fn new() -> Vfs {
        let mut nodes = HashMap::new();
        nodes.insert(
            ROOT,
            Node {
                kind: NodeKind::Dir(BTreeMap::new()),
                owner: SUPERUSER,
                mode: Mode::DIR_DEFAULT,
                mtime: 0,
            },
        );
        Vfs {
            state: RwLock::new(State {
                nodes,
                next_id: 1,
                clock: 0,
            }),
        }
    }

    /// Metadata for the node at `path`.
    ///
    /// # Errors
    ///
    /// `NotFound` if the path does not exist; `PermissionDenied` if a
    /// directory on the way is not traversable by `user`.
    pub fn stat(&self, path: &str, user: UserId) -> Result<FileInfo> {
        let path = normalize(path);
        let state = self.state.read();
        let id = state.resolve(&path, user)?;
        Ok(state.node(id).info())
    }

    /// Returns `true` if `path` exists and is reachable by `user`.
    pub fn exists(&self, path: &str, user: UserId) -> bool {
        self.stat(path, user).is_ok()
    }

    /// Lists the entries of the directory at `path`, sorted by name.
    ///
    /// # Errors
    ///
    /// `NotADirectory` if `path` is a file; `PermissionDenied` if `user` may
    /// not read the directory.
    pub fn list_dir(&self, path: &str, user: UserId) -> Result<Vec<DirEntry>> {
        let path = normalize(path);
        let state = self.state.read();
        let id = state.resolve(&path, user)?;
        let node = state.node(id);
        let entries = match &node.kind {
            NodeKind::Dir(entries) => entries,
            NodeKind::File(_) => return Err(VfsError::NotADirectory { path }),
        };
        if !node.allows(user, |m| m.read) {
            return Err(VfsError::denied(path, "read"));
        }
        Ok(entries
            .iter()
            .map(|(name, id)| DirEntry {
                name: name.clone(),
                info: state.node(*id).info(),
            })
            .collect())
    }

    /// Creates a directory at `path`.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` if the path is taken; `PermissionDenied` if `user` may
    /// not write the parent directory.
    pub fn mkdir(&self, path: &str, user: UserId) -> Result<()> {
        let path = normalize(path);
        let mut state = self.state.write();
        let (parent, name) = state.resolve_parent(&path, user)?;
        create_node(
            &mut state,
            parent,
            name,
            NodeKind::Dir(BTreeMap::new()),
            user,
            Mode::DIR_DEFAULT,
            &path,
        )?;
        Ok(())
    }

    /// Creates `path` and any missing ancestors (like `mkdir -p`).
    ///
    /// # Errors
    ///
    /// As [`Vfs::mkdir`], except that existing directories along the way are
    /// not an error.
    pub fn mkdirs(&self, path: &str, user: UserId) -> Result<()> {
        let path = normalize(path);
        let comps: Vec<&str> = components(&path).collect();
        let mut so_far = String::new();
        for comp in comps {
            so_far.push('/');
            so_far.push_str(comp);
            match self.mkdir(&so_far, user) {
                Ok(()) | Err(VfsError::AlreadyExists { .. }) => {}
                Err(other) => return Err(other),
            }
        }
        // If the final path exists but is a file, report it.
        let state = self.state.read();
        let id = state.resolve(&path, user)?;
        match state.node(id).kind {
            NodeKind::Dir(_) => Ok(()),
            NodeKind::File(_) => Err(VfsError::NotADirectory { path }),
        }
    }

    /// Writes `data` to the file at `path`, creating it (with
    /// [`Mode::FILE_DEFAULT`], owned by `user`) or truncating it.
    ///
    /// # Errors
    ///
    /// `PermissionDenied` if `user` may not write the file (when it exists)
    /// or the parent directory (when creating); `IsADirectory` if `path`
    /// names a directory.
    pub fn write(&self, path: &str, data: &[u8], user: UserId) -> Result<()> {
        self.write_impl(path, data, user, false)
    }

    /// Appends `data` to the file at `path`, creating it if absent.
    ///
    /// # Errors
    ///
    /// As [`Vfs::write`].
    pub fn append(&self, path: &str, data: &[u8], user: UserId) -> Result<()> {
        self.write_impl(path, data, user, true)
    }

    fn write_impl(&self, path: &str, data: &[u8], user: UserId, append: bool) -> Result<()> {
        let path = normalize(path);
        let mut state = self.state.write();
        let (parent, name) = state.resolve_parent(&path, user)?;
        let existing = match &state.node(parent).kind {
            NodeKind::Dir(entries) => entries.get(name).copied(),
            NodeKind::File(_) => unreachable!("resolve_parent guarantees a directory"),
        };
        match existing {
            Some(id) => {
                let mtime = state.tick();
                let node = state.node_mut(id);
                let writable = node.allows(user, |m| m.write);
                match &mut node.kind {
                    NodeKind::File(contents) => {
                        if !writable {
                            return Err(VfsError::denied(path, "write"));
                        }
                        if append {
                            contents.extend_from_slice(data);
                        } else {
                            contents.clear();
                            contents.extend_from_slice(data);
                        }
                        node.mtime = mtime;
                        Ok(())
                    }
                    NodeKind::Dir(_) => Err(VfsError::IsADirectory { path }),
                }
            }
            None => {
                create_node(
                    &mut state,
                    parent,
                    name,
                    NodeKind::File(data.to_vec()),
                    user,
                    Mode::FILE_DEFAULT,
                    &path,
                )?;
                Ok(())
            }
        }
    }

    /// Reads the entire contents of the file at `path`.
    ///
    /// # Errors
    ///
    /// `PermissionDenied` if `user` may not read it; `IsADirectory` for
    /// directories; `NotFound` if absent.
    pub fn read(&self, path: &str, user: UserId) -> Result<Vec<u8>> {
        let path = normalize(path);
        let state = self.state.read();
        let id = state.resolve(&path, user)?;
        let node = state.node(id);
        match &node.kind {
            NodeKind::File(data) => {
                if !node.allows(user, |m| m.read) {
                    return Err(VfsError::denied(path, "read"));
                }
                Ok(data.clone())
            }
            NodeKind::Dir(_) => Err(VfsError::IsADirectory { path }),
        }
    }

    /// Copies up to `buf.len()` bytes starting at `offset` into `buf` and
    /// returns the count; `0` at end-of-file. Streaming readers land file
    /// bytes straight in their own buffer, with no copy in between.
    ///
    /// # Errors
    ///
    /// As [`Vfs::read`].
    pub fn read_at(&self, path: &str, offset: u64, buf: &mut [u8], user: UserId) -> Result<usize> {
        let path = normalize(path);
        let state = self.state.read();
        let id = state.resolve(&path, user)?;
        let node = state.node(id);
        match &node.kind {
            NodeKind::File(data) => {
                if !node.allows(user, |m| m.read) {
                    return Err(VfsError::denied(path, "read"));
                }
                let rest = data.get(offset as usize..).unwrap_or_default();
                let n = rest.len().min(buf.len());
                buf[..n].copy_from_slice(&rest[..n]);
                Ok(n)
            }
            NodeKind::Dir(_) => Err(VfsError::IsADirectory { path }),
        }
    }

    /// Creates an empty file if `path` is absent, else bumps its mtime.
    ///
    /// # Errors
    ///
    /// As [`Vfs::write`].
    pub fn touch(&self, path: &str, user: UserId) -> Result<()> {
        let npath = normalize(path);
        let exists = {
            let state = self.state.read();
            state.resolve(&npath, user).is_ok()
        };
        if exists {
            let mut state = self.state.write();
            let id = state.resolve(&npath, user)?;
            let mtime = state.tick();
            let node = state.node_mut(id);
            if !node.allows(user, |m| m.write) {
                return Err(VfsError::denied(npath, "write"));
            }
            node.mtime = mtime;
            Ok(())
        } else {
            self.write(path, b"", user)
        }
    }

    /// Removes the file at `path` (like `unlink`). Requires write permission
    /// on the *parent directory*, matching Unix semantics — this is exactly
    /// the check a `checkDelete` security hook sits in front of (paper §3.3).
    ///
    /// # Errors
    ///
    /// `IsADirectory` for directories (use [`Vfs::rmdir`]);
    /// `PermissionDenied`/`NotFound` as usual.
    pub fn remove(&self, path: &str, user: UserId) -> Result<()> {
        self.remove_impl(path, user, false)
    }

    /// Removes the *empty* directory at `path`.
    ///
    /// # Errors
    ///
    /// `NotEmpty` if the directory has entries; `NotADirectory` for files.
    pub fn rmdir(&self, path: &str, user: UserId) -> Result<()> {
        self.remove_impl(path, user, true)
    }

    fn remove_impl(&self, path: &str, user: UserId, dir: bool) -> Result<()> {
        let path = normalize(path);
        let mut state = self.state.write();
        let (parent, name) = state.resolve_parent(&path, user)?;
        let parent_node = state.node(parent);
        if !parent_node.allows(user, |m| m.write) {
            return Err(VfsError::denied(path, "delete"));
        }
        let id = match &parent_node.kind {
            NodeKind::Dir(entries) => entries
                .get(name)
                .copied()
                .ok_or_else(|| VfsError::not_found(&path))?,
            NodeKind::File(_) => unreachable!("resolve_parent guarantees a directory"),
        };
        match (&state.node(id).kind, dir) {
            (NodeKind::Dir(_), false) => return Err(VfsError::IsADirectory { path }),
            (NodeKind::File(_), true) => return Err(VfsError::NotADirectory { path }),
            (NodeKind::Dir(entries), true) if !entries.is_empty() => {
                return Err(VfsError::NotEmpty { path })
            }
            _ => {}
        }
        let mtime = state.tick();
        if let NodeKind::Dir(entries) = &mut state.node_mut(parent).kind {
            entries.remove(name);
        }
        state.node_mut(parent).mtime = mtime;
        state.nodes.remove(&id);
        Ok(())
    }

    /// Recursively removes `path` and everything under it (like `rm -r`).
    /// Requires write permission on the parent of every removed entry.
    ///
    /// # Errors
    ///
    /// Stops at the first permission failure, leaving a partially-removed
    /// tree (like `rm -r` does).
    pub fn remove_recursive(&self, path: &str, user: UserId) -> Result<()> {
        let info = self.stat(path, user)?;
        if info.kind == FileKind::Directory {
            let children = self.list_dir(path, user)?;
            for child in children {
                self.remove_recursive(&crate::path::join(&normalize(path), &child.name), user)?;
            }
            self.rmdir(path, user)
        } else {
            self.remove(path, user)
        }
    }

    /// Renames/moves `from` to `to` (which must not exist). Requires write
    /// permission on both parent directories.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` if `to` is taken; permission/lookup errors as usual.
    pub fn rename(&self, from: &str, to: &str, user: UserId) -> Result<()> {
        let from = normalize(from);
        let to = normalize(to);
        let mut state = self.state.write();
        let (from_parent, from_name) = state.resolve_parent(&from, user)?;
        let (to_parent, to_name) = state.resolve_parent(&to, user)?;
        if !state.node(from_parent).allows(user, |m| m.write) {
            return Err(VfsError::denied(from, "delete"));
        }
        if !state.node(to_parent).allows(user, |m| m.write) {
            return Err(VfsError::denied(to, "write"));
        }
        if let NodeKind::Dir(entries) = &state.node(to_parent).kind {
            if entries.contains_key(to_name) {
                return Err(VfsError::AlreadyExists { path: to });
            }
        }
        let id = match &state.node(from_parent).kind {
            NodeKind::Dir(entries) => entries
                .get(from_name)
                .copied()
                .ok_or_else(|| VfsError::not_found(&from))?,
            NodeKind::File(_) => unreachable!("resolve_parent guarantees a directory"),
        };
        let mtime = state.tick();
        if let NodeKind::Dir(entries) = &mut state.node_mut(from_parent).kind {
            entries.remove(from_name);
        }
        let to_name = to_name.to_string();
        if let NodeKind::Dir(entries) = &mut state.node_mut(to_parent).kind {
            entries.insert(to_name, id);
        }
        state.node_mut(from_parent).mtime = mtime;
        state.node_mut(to_parent).mtime = mtime;
        Ok(())
    }

    /// Changes the owner of `path`. Only the superuser or the current owner
    /// may do this.
    ///
    /// # Errors
    ///
    /// `PermissionDenied` for anyone else.
    pub fn chown(&self, path: &str, new_owner: UserId, user: UserId) -> Result<()> {
        let path = normalize(path);
        let mut state = self.state.write();
        let id = state.resolve(&path, user)?;
        let mtime = state.tick();
        let node = state.node_mut(id);
        if user != SUPERUSER && user != node.owner {
            return Err(VfsError::denied(path, "chown"));
        }
        node.owner = new_owner;
        node.mtime = mtime;
        Ok(())
    }

    /// Changes the mode bits of `path`. Only the superuser or the owner may
    /// do this.
    ///
    /// # Errors
    ///
    /// `PermissionDenied` for anyone else.
    pub fn chmod(&self, path: &str, mode: Mode, user: UserId) -> Result<()> {
        let path = normalize(path);
        let mut state = self.state.write();
        let id = state.resolve(&path, user)?;
        let mtime = state.tick();
        let node = state.node_mut(id);
        if user != SUPERUSER && user != node.owner {
            return Err(VfsError::denied(path, "chmod"));
        }
        node.mode = mode;
        node.mtime = mtime;
        Ok(())
    }

    /// Total number of nodes (files + directories, including root). Used by
    /// tests and the memory-footprint experiment.
    pub fn node_count(&self) -> usize {
        self.state.read().nodes.len()
    }
}

fn create_node(
    state: &mut State,
    parent: NodeId,
    name: &str,
    kind: NodeKind,
    owner: UserId,
    mode: Mode,
    full_path: &str,
) -> Result<NodeId> {
    let parent_node = state.node(parent);
    // Existence wins over permission, matching Unix mkdir(2): creating an
    // entry that already exists reports EEXIST even in a read-only parent.
    if let NodeKind::Dir(entries) = &parent_node.kind {
        if entries.contains_key(name) {
            return Err(VfsError::AlreadyExists {
                path: full_path.to_string(),
            });
        }
    }
    if !parent_node.allows(owner, |m| m.write) {
        return Err(VfsError::denied(full_path, "create"));
    }
    let id = state.next_id;
    state.next_id += 1;
    let mtime = state.tick();
    state.nodes.insert(
        id,
        Node {
            kind,
            owner,
            mode,
            mtime,
        },
    );
    if let NodeKind::Dir(entries) = &mut state.node_mut(parent).kind {
        entries.insert(name.to_string(), id);
    }
    state.node_mut(parent).mtime = mtime;
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT_U: UserId = UserId(0);
    const ALICE: UserId = UserId(1);
    const BOB: UserId = UserId(2);

    /// Builds the standard two-user world the paper's examples use.
    fn world() -> Vfs {
        let fs = Vfs::new();
        fs.mkdirs("/home/alice", ROOT_U).unwrap();
        fs.mkdirs("/home/bob", ROOT_U).unwrap();
        fs.mkdirs("/tmp", ROOT_U).unwrap();
        fs.chmod("/tmp", Mode::WORLD_WRITABLE, ROOT_U).unwrap();
        fs.chown("/home/alice", ALICE, ROOT_U).unwrap();
        fs.chmod("/home/alice", Mode::DIR_PRIVATE, ROOT_U).unwrap();
        fs.chown("/home/bob", BOB, ROOT_U).unwrap();
        fs.chmod("/home/bob", Mode::DIR_PRIVATE, ROOT_U).unwrap();
        fs
    }

    #[test]
    fn write_and_read_roundtrip() {
        let fs = world();
        fs.write("/home/alice/notes.txt", b"dear diary", ALICE)
            .unwrap();
        assert_eq!(
            fs.read("/home/alice/notes.txt", ALICE).unwrap(),
            b"dear diary"
        );
        let info = fs.stat("/home/alice/notes.txt", ALICE).unwrap();
        assert_eq!(info.kind, FileKind::File);
        assert_eq!(info.size, 10);
        assert_eq!(info.owner, ALICE);
    }

    #[test]
    fn bob_cannot_enter_alices_private_home() {
        let fs = world();
        fs.write("/home/alice/secret", b"x", ALICE).unwrap();
        let err = fs.read("/home/alice/secret", BOB).unwrap_err();
        assert!(err.is_permission_denied(), "got {err:?}");
        // ... but the superuser can.
        assert_eq!(fs.read("/home/alice/secret", ROOT_U).unwrap(), b"x");
    }

    #[test]
    fn world_readable_file_in_private_dir_is_still_unreachable() {
        // Traverse permission on the directory gates everything inside.
        let fs = world();
        fs.write("/home/alice/public.txt", b"x", ALICE).unwrap();
        fs.chmod("/home/alice/public.txt", Mode::from_octal(0o644), ALICE)
            .unwrap();
        assert!(fs
            .read("/home/alice/public.txt", BOB)
            .unwrap_err()
            .is_permission_denied());
    }

    #[test]
    fn tmp_is_shared() {
        let fs = world();
        fs.write("/tmp/a", b"alice", ALICE).unwrap();
        fs.write("/tmp/b", b"bob", BOB).unwrap();
        // Bob can read alice's default-mode file in /tmp...
        assert_eq!(fs.read("/tmp/a", BOB).unwrap(), b"alice");
        // ...but cannot write it.
        assert!(fs
            .write("/tmp/a", b"evil", BOB)
            .unwrap_err()
            .is_permission_denied());
        // Deletion is governed by the parent directory, which is world-writable.
        fs.remove("/tmp/a", BOB).unwrap();
    }

    #[test]
    fn private_file_mode() {
        let fs = world();
        fs.write("/tmp/secret", b"x", ALICE).unwrap();
        fs.chmod("/tmp/secret", Mode::FILE_PRIVATE, ALICE).unwrap();
        assert!(fs
            .read("/tmp/secret", BOB)
            .unwrap_err()
            .is_permission_denied());
        assert_eq!(fs.read("/tmp/secret", ALICE).unwrap(), b"x");
    }

    #[test]
    fn append_extends() {
        let fs = world();
        fs.write("/tmp/log", b"one\n", ALICE).unwrap();
        fs.append("/tmp/log", b"two\n", ALICE).unwrap();
        assert_eq!(fs.read("/tmp/log", ALICE).unwrap(), b"one\ntwo\n");
    }

    #[test]
    fn read_at_windows() {
        let fs = world();
        fs.write("/tmp/data", b"0123456789", ALICE).unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(fs.read_at("/tmp/data", 2, &mut buf[..3], ALICE).unwrap(), 3);
        assert_eq!(&buf[..3], b"234");
        assert_eq!(fs.read_at("/tmp/data", 8, &mut buf, ALICE).unwrap(), 2);
        assert_eq!(&buf[..2], b"89");
        assert_eq!(fs.read_at("/tmp/data", 100, &mut buf, ALICE).unwrap(), 0);
    }

    #[test]
    fn mkdir_requires_parent_write() {
        let fs = world();
        assert!(fs
            .mkdir("/home/alice/sub", BOB)
            .unwrap_err()
            .is_permission_denied());
        fs.mkdir("/home/alice/sub", ALICE).unwrap();
        assert_eq!(
            fs.stat("/home/alice/sub", ALICE).unwrap().kind,
            FileKind::Directory
        );
    }

    #[test]
    fn mkdirs_is_idempotent_and_detects_file_conflicts() {
        let fs = world();
        fs.mkdirs("/a/b/c", ROOT_U).unwrap();
        fs.mkdirs("/a/b/c", ROOT_U).unwrap();
        fs.write("/a/file", b"x", ROOT_U).unwrap();
        let err = fs.mkdirs("/a/file", ROOT_U).unwrap_err();
        assert!(matches!(err, VfsError::NotADirectory { .. }));
    }

    #[test]
    fn list_dir_is_sorted_and_respects_read_bit() {
        let fs = world();
        fs.write("/tmp/b", b"", ALICE).unwrap();
        fs.write("/tmp/a", b"", ALICE).unwrap();
        let names: Vec<String> = fs
            .list_dir("/tmp", BOB)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["a", "b"]);

        assert!(fs
            .list_dir("/home/alice", BOB)
            .unwrap_err()
            .is_permission_denied());
    }

    #[test]
    fn remove_distinguishes_files_and_dirs() {
        let fs = world();
        fs.mkdir("/tmp/d", ALICE).unwrap();
        fs.write("/tmp/f", b"", ALICE).unwrap();
        assert!(matches!(
            fs.remove("/tmp/d", ALICE).unwrap_err(),
            VfsError::IsADirectory { .. }
        ));
        assert!(matches!(
            fs.rmdir("/tmp/f", ALICE).unwrap_err(),
            VfsError::NotADirectory { .. }
        ));
        fs.write("/tmp/d/x", b"", ALICE).unwrap();
        assert!(matches!(
            fs.rmdir("/tmp/d", ALICE).unwrap_err(),
            VfsError::NotEmpty { .. }
        ));
        fs.remove("/tmp/d/x", ALICE).unwrap();
        fs.rmdir("/tmp/d", ALICE).unwrap();
        fs.remove("/tmp/f", ALICE).unwrap();
        assert!(!fs.exists("/tmp/f", ALICE));
    }

    #[test]
    fn remove_recursive_clears_trees() {
        let fs = world();
        fs.mkdirs("/tmp/t/a/b", ALICE).unwrap();
        fs.write("/tmp/t/a/b/f1", b"", ALICE).unwrap();
        fs.write("/tmp/t/f2", b"", ALICE).unwrap();
        let before = fs.node_count();
        fs.remove_recursive("/tmp/t", ALICE).unwrap();
        assert!(!fs.exists("/tmp/t", ALICE));
        assert_eq!(fs.node_count(), before - 5);
    }

    #[test]
    fn rename_moves_between_directories() {
        let fs = world();
        fs.write("/tmp/old", b"payload", ALICE).unwrap();
        fs.rename("/tmp/old", "/home/alice/new", ALICE).unwrap();
        assert!(!fs.exists("/tmp/old", ALICE));
        assert_eq!(fs.read("/home/alice/new", ALICE).unwrap(), b"payload");

        fs.write("/tmp/x", b"1", ALICE).unwrap();
        fs.write("/tmp/y", b"2", ALICE).unwrap();
        assert!(matches!(
            fs.rename("/tmp/x", "/tmp/y", ALICE).unwrap_err(),
            VfsError::AlreadyExists { .. }
        ));
    }

    #[test]
    fn chown_chmod_ownership_rules() {
        let fs = world();
        fs.write("/tmp/f", b"", ALICE).unwrap();
        assert!(fs
            .chown("/tmp/f", BOB, BOB)
            .unwrap_err()
            .is_permission_denied());
        assert!(fs
            .chmod("/tmp/f", Mode::FILE_PRIVATE, BOB)
            .unwrap_err()
            .is_permission_denied());
        fs.chown("/tmp/f", BOB, ALICE).unwrap();
        assert_eq!(fs.stat("/tmp/f", ALICE).unwrap().owner, BOB);
        // After giving it away, alice is no longer the owner.
        assert!(fs
            .chown("/tmp/f", ALICE, ALICE)
            .unwrap_err()
            .is_permission_denied());
    }

    #[test]
    fn mtime_is_monotone() {
        let fs = world();
        fs.write("/tmp/f", b"1", ALICE).unwrap();
        let t1 = fs.stat("/tmp/f", ALICE).unwrap().mtime;
        fs.write("/tmp/f", b"2", ALICE).unwrap();
        let t2 = fs.stat("/tmp/f", ALICE).unwrap().mtime;
        assert!(t2 > t1);
        fs.touch("/tmp/f", ALICE).unwrap();
        assert!(fs.stat("/tmp/f", ALICE).unwrap().mtime > t2);
    }

    #[test]
    fn touch_creates_files() {
        let fs = world();
        fs.touch("/tmp/new", ALICE).unwrap();
        assert_eq!(fs.stat("/tmp/new", ALICE).unwrap().size, 0);
    }

    #[test]
    fn relative_components_are_normalized() {
        let fs = world();
        fs.write("/tmp/../tmp/./f", b"x", ALICE).unwrap();
        assert_eq!(fs.read("/tmp/f", ALICE).unwrap(), b"x");
    }

    #[test]
    fn path_through_file_is_not_a_directory() {
        let fs = world();
        fs.write("/tmp/f", b"x", ALICE).unwrap();
        let err = fs.read("/tmp/f/deeper", ALICE).unwrap_err();
        assert!(matches!(err, VfsError::NotADirectory { .. }));
    }

    #[test]
    fn not_found_reports_the_missing_prefix() {
        let fs = world();
        let err = fs.read("/tmp/missing/deeper", ALICE).unwrap_err();
        match err {
            VfsError::NotFound { path } => assert_eq!(path, "/tmp/missing"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn superuser_bypasses_everything() {
        let fs = world();
        fs.write("/home/alice/f", b"x", ALICE).unwrap();
        fs.chmod("/home/alice/f", Mode::from_octal(0o000), ALICE)
            .unwrap();
        assert_eq!(fs.read("/home/alice/f", ROOT_U).unwrap(), b"x");
        fs.write("/home/alice/f", b"y", ROOT_U).unwrap();
        fs.remove("/home/alice/f", ROOT_U).unwrap();
    }

    #[test]
    fn owner_needs_mode_bits_too() {
        // Even the owner is subject to the owner-class bits (like Unix).
        let fs = world();
        fs.write("/tmp/f", b"x", ALICE).unwrap();
        fs.chmod("/tmp/f", Mode::from_octal(0o000), ALICE).unwrap();
        assert!(fs.read("/tmp/f", ALICE).unwrap_err().is_permission_denied());
    }
}
