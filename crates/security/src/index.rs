//! An indexed form of a grant list, replacing the linear `implies` scan.
//!
//! [`PermissionIndex`] pre-sorts grants by permission kind and target shape so
//! a concrete demand resolves with hash-map probes instead of walking every
//! grant. The index is semantically *exact*: for every demand it returns the
//! same answer as `grants.iter().any(|g| g.implies(demand))`, which the
//! `index_matches_linear_scan` test below enforces over the full pattern
//! matrix (exact paths, `/*` children, `/-` subtrees, `<<ALL FILES>>`, name
//! wildcards, dotted property wildcards, pattern-shaped demands).
//!
//! Action sets are deliberately **not** unioned across grants: two grants
//! `read` and `write` on the same path do not satisfy a `read,write` demand
//! (JDK `PermissionCollection` semantics, covered by the seed test
//! `collection_union_semantics`). Each index bucket therefore keeps one
//! action-set entry per grant and a demand must be contained by a single one.

use std::collections::{HashMap, HashSet};

use crate::permission::{
    host_pattern_implies, name_pattern_implies, path_pattern_implies, FileActions, Permission,
    PropertyActions, SocketActions,
};

/// Exact/wildcard split for named targets (runtime, awt, user).
///
/// `name_pattern_implies` treats a grant without a trailing `*` as an exact
/// string match, so those land in a hash set; the (rare) wildcard grants stay
/// in a short linear list.
#[derive(Debug, Clone, Default)]
struct NameIndex {
    exact: HashSet<String>,
    wildcard: Vec<String>,
}

impl NameIndex {
    fn add(&mut self, target: &str) {
        if target.ends_with('*') {
            self.wildcard.push(target.to_string());
        } else {
            self.exact.insert(target.to_string());
        }
    }

    fn implies(&self, demand: &str) -> bool {
        self.exact.contains(demand)
            || self
                .wildcard
                .iter()
                .any(|g| name_pattern_implies(g, demand))
    }

    fn is_empty(&self) -> bool {
        self.exact.is_empty() && self.wildcard.is_empty()
    }
}

/// A kind- and target-indexed view of a set of permission grants.
///
/// Built once (lazily) per [`PermissionCollection`](crate::PermissionCollection)
/// or per policy user; queried on every access check that misses the
/// decision cache.
#[derive(Debug, Clone, Default)]
pub struct PermissionIndex {
    /// `AllPermission` granted: implies every demand.
    all: bool,
    /// File grants with an exact path, keyed by path.
    file_exact: HashMap<String, Vec<FileActions>>,
    /// `dir/*` file grants (direct children only), keyed by `dir`.
    file_children: HashMap<String, Vec<FileActions>>,
    /// `dir/-` file grants (recursive), keyed by `dir`.
    file_recursive: HashMap<String, Vec<FileActions>>,
    /// `<<ALL FILES>>` grants.
    file_all: Vec<FileActions>,
    /// Every file grant in declaration order; consulted only when the
    /// *demand* side is itself a pattern (`/*`, `/-`, `<<ALL FILES>>`),
    /// which never happens on the access-check hot path.
    file_linear: Vec<(String, FileActions)>,
    /// Socket grants; host patterns (ports, `*.suffix`) resist prefix
    /// indexing and socket checks are rare, so these stay linear.
    sockets: Vec<(String, SocketActions)>,
    runtime: NameIndex,
    awt: NameIndex,
    user: NameIndex,
    resource: NameIndex,
    /// Property grants with an exact key.
    property_exact: HashMap<String, Vec<PropertyActions>>,
    /// Property grants whose key ends in a wildcard.
    property_wildcard: Vec<(String, PropertyActions)>,
}

impl PermissionIndex {
    /// Builds an index over `grants`.
    pub fn build<'a>(grants: impl IntoIterator<Item = &'a Permission>) -> PermissionIndex {
        let mut index = PermissionIndex::default();
        for grant in grants {
            index.add(grant);
        }
        index
    }

    fn add(&mut self, grant: &Permission) {
        match grant {
            Permission::All => self.all = true,
            Permission::File { path, actions } => {
                self.file_linear.push((path.clone(), *actions));
                if path == "<<ALL FILES>>" {
                    self.file_all.push(*actions);
                } else if let Some(dir) = path.strip_suffix("/-") {
                    self.file_recursive
                        .entry(dir.to_string())
                        .or_default()
                        .push(*actions);
                } else if let Some(dir) = path.strip_suffix("/*") {
                    self.file_children
                        .entry(dir.to_string())
                        .or_default()
                        .push(*actions);
                } else {
                    self.file_exact
                        .entry(path.clone())
                        .or_default()
                        .push(*actions);
                }
            }
            Permission::Socket { host, actions } => self.sockets.push((host.clone(), *actions)),
            Permission::Runtime(target) => self.runtime.add(target),
            Permission::Property { key, actions } => {
                if key.ends_with('*') {
                    self.property_wildcard.push((key.clone(), *actions));
                } else {
                    self.property_exact
                        .entry(key.clone())
                        .or_default()
                        .push(*actions);
                }
            }
            Permission::Awt(target) => self.awt.add(target),
            Permission::User(target) => self.user.add(target),
            Permission::Resource(target) => self.resource.add(target),
        }
    }

    /// Returns `true` if the index holds no grants at all.
    pub fn is_empty(&self) -> bool {
        !self.all
            && self.file_linear.is_empty()
            && self.sockets.is_empty()
            && self.runtime.is_empty()
            && self.awt.is_empty()
            && self.user.is_empty()
            && self.resource.is_empty()
            && self.property_exact.is_empty()
            && self.property_wildcard.is_empty()
    }

    /// Returns `true` if any indexed grant implies `demand`.
    ///
    /// Exactly equivalent to the linear `any(|g| g.implies(demand))` scan.
    pub fn implies(&self, demand: &Permission) -> bool {
        if self.all {
            return true;
        }
        match demand {
            // Only `AllPermission` implies `AllPermission`.
            Permission::All => false,
            Permission::File { path, actions } => self.file_implies(path, *actions),
            Permission::Socket { host, actions } => self
                .sockets
                .iter()
                .any(|(g, a)| a.contains(*actions) && host_pattern_implies(g, host)),
            Permission::Runtime(target) => self.runtime.implies(target),
            Permission::Property { key, actions } => self.property_implies(key, *actions),
            Permission::Awt(target) => self.awt.implies(target),
            Permission::User(target) => self.user.implies(target),
            Permission::Resource(target) => self.resource.implies(target),
        }
    }

    fn file_implies(&self, path: &str, demand: FileActions) -> bool {
        // A pattern-shaped demand ("may I do X to everything under /a?") has
        // covering rules that cut across the index buckets; fall back to the
        // exact linear semantics for those.
        if path == "<<ALL FILES>>" || path.ends_with("/-") || path.ends_with("/*") {
            return self
                .file_linear
                .iter()
                .any(|(g, a)| a.contains(demand) && path_pattern_implies(g, path));
        }
        if self.file_all.iter().any(|a| a.contains(demand)) {
            return true;
        }
        if let Some(grants) = self.file_exact.get(path) {
            if grants.iter().any(|a| a.contains(demand)) {
                return true;
            }
        }
        // A `dir/*` grant covers exactly one more non-empty path component.
        if !self.file_children.is_empty() {
            if let Some((dir, name)) = path.rsplit_once('/') {
                if !name.is_empty() {
                    if let Some(grants) = self.file_children.get(dir) {
                        if grants.iter().any(|a| a.contains(demand)) {
                            return true;
                        }
                    }
                }
            }
        }
        // A `dir/-` grant covers every strict descendant: probe each proper
        // ancestor prefix (every prefix of `path` ending just before a '/').
        if !self.file_recursive.is_empty() {
            for (i, byte) in path.bytes().enumerate() {
                if byte == b'/' {
                    if let Some(grants) = self.file_recursive.get(&path[..i]) {
                        if grants.iter().any(|a| a.contains(demand)) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    fn property_implies(&self, key: &str, demand: PropertyActions) -> bool {
        if let Some(grants) = self.property_exact.get(key) {
            if grants.iter().any(|a| a.contains(demand)) {
                return true;
            }
        }
        self.property_wildcard
            .iter()
            .any(|(g, a)| a.contains(demand) && name_pattern_implies(g, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_implies(grants: &[Permission], demand: &Permission) -> bool {
        grants.iter().any(|g| g.implies(demand))
    }

    fn grant_matrix() -> Vec<Permission> {
        vec![
            Permission::file("/home/alice/notes.txt", FileActions::READ),
            Permission::file("/home/alice/notes.txt", FileActions::WRITE),
            Permission::file("/home/alice/*", FileActions::READ),
            Permission::file("/home/alice/-", FileActions::DELETE),
            Permission::file("/-", FileActions::EXECUTE),
            Permission::file("<<ALL FILES>>", FileActions::READ),
            Permission::socket("*.example.com", SocketActions::CONNECT),
            Permission::socket("host:80", SocketActions::ALL),
            Permission::runtime("exitVM"),
            Permission::runtime("modifyThread*"),
            Permission::property("os.name", PropertyActions::READ),
            Permission::property("user.*", PropertyActions::ALL),
            Permission::awt("showWindow"),
            Permission::user(Permission::EXERCISE_USER),
            Permission::resource(Permission::SET_LIMITS),
            Permission::resource("limit.*"),
        ]
    }

    fn demand_matrix() -> Vec<Permission> {
        vec![
            Permission::All,
            Permission::file("/home/alice/notes.txt", FileActions::READ),
            Permission::file("/home/alice/notes.txt", FileActions::WRITE),
            Permission::file(
                "/home/alice/notes.txt",
                FileActions {
                    read: true,
                    write: true,
                    ..FileActions::default()
                },
            ),
            Permission::file("/home/alice/other.txt", FileActions::READ),
            Permission::file("/home/alice/sub/deep.txt", FileActions::READ),
            Permission::file("/home/alice/sub/deep.txt", FileActions::DELETE),
            Permission::file("/home/alice/sub/deep.txt", FileActions::EXECUTE),
            Permission::file("/home/bob/x", FileActions::READ),
            Permission::file("/home/bob/x", FileActions::WRITE),
            Permission::file("/home", FileActions::DELETE),
            Permission::file("/home/alice", FileActions::DELETE),
            Permission::file("relative", FileActions::READ),
            Permission::file("/home/alice/*", FileActions::READ),
            Permission::file("/home/alice/-", FileActions::DELETE),
            Permission::file("/home/alice/sub/-", FileActions::DELETE),
            Permission::file("<<ALL FILES>>", FileActions::READ),
            Permission::file("<<ALL FILES>>", FileActions::WRITE),
            Permission::socket("www.example.com", SocketActions::CONNECT),
            Permission::socket("example.com", SocketActions::CONNECT),
            Permission::socket("evil.com", SocketActions::CONNECT),
            Permission::socket("host:80", SocketActions::ACCEPT),
            Permission::socket("host:81", SocketActions::ACCEPT),
            Permission::runtime("exitVM"),
            Permission::runtime("modifyThreadGroup"),
            Permission::runtime("setUser"),
            Permission::property("os.name", PropertyActions::READ),
            Permission::property("os.name", PropertyActions::WRITE),
            Permission::property("user.home", PropertyActions::ALL),
            Permission::property("username", PropertyActions::READ),
            Permission::awt("showWindow"),
            Permission::awt("accessEventQueue"),
            Permission::user(Permission::EXERCISE_USER),
            Permission::user("other"),
            Permission::resource(Permission::SET_LIMITS),
            Permission::resource("limit.threads:256"),
            Permission::resource("limits"),
            Permission::resource("other"),
        ]
    }

    #[test]
    fn index_matches_linear_scan() {
        let grants = grant_matrix();
        let index = PermissionIndex::build(&grants);
        for demand in demand_matrix() {
            assert_eq!(
                index.implies(&demand),
                linear_implies(&grants, &demand),
                "index disagrees with linear scan for {demand}"
            );
        }
    }

    #[test]
    fn index_matches_linear_scan_per_grant() {
        // Each grant alone, against the full demand matrix: catches bucket
        // misclassification that the combined matrix could mask.
        for grant in grant_matrix() {
            let grants = vec![grant.clone()];
            let index = PermissionIndex::build(&grants);
            for demand in demand_matrix() {
                assert_eq!(
                    index.implies(&demand),
                    linear_implies(&grants, &demand),
                    "index disagrees with linear scan for grant {grant} demand {demand}"
                );
            }
        }
    }

    #[test]
    fn all_permission_dominates() {
        let index = PermissionIndex::build(&[Permission::All]);
        assert!(index.implies(&Permission::All));
        assert!(index.implies(&Permission::runtime("anything")));
        assert!(index.implies(&Permission::file("/x", FileActions::ALL)));
    }

    #[test]
    fn empty_index_implies_nothing() {
        let index = PermissionIndex::build(&[]);
        assert!(index.is_empty());
        assert!(!index.implies(&Permission::runtime("x")));
        assert!(!index.implies(&Permission::All));
    }

    #[test]
    fn root_recursive_grant_covers_absolute_paths() {
        let index = PermissionIndex::build(&[Permission::file("/-", FileActions::READ)]);
        assert!(index.implies(&Permission::file("/etc/passwd", FileActions::READ)));
        assert!(!index.implies(&Permission::file("relative", FileActions::READ)));
    }

    #[test]
    fn actions_are_not_unioned_across_grants() {
        let index = PermissionIndex::build(&[
            Permission::file("/a/x", FileActions::READ),
            Permission::file("/a/x", FileActions::WRITE),
        ]);
        assert!(index.implies(&Permission::file("/a/x", FileActions::READ)));
        assert!(index.implies(&Permission::file("/a/x", FileActions::WRITE)));
        assert!(!index.implies(&Permission::file(
            "/a/x",
            FileActions {
                read: true,
                write: true,
                ..FileActions::default()
            }
        )));
    }
}
