//! Normalized, rooted-relative archive paths.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A validated, normalized path inside an image root file system.
///
/// Invariants: relative (no leading `/`), non-empty, no `.` or `..`
/// components, no empty components, and no interior NUL bytes. Components are
/// joined by `/`.
///
/// ```
/// use gear_archive::ArchivePath;
/// let p = ArchivePath::new("usr/lib/libc.so")?;
/// assert_eq!(p.file_name(), "libc.so");
/// assert_eq!(p.parent().unwrap().as_str(), "usr/lib");
/// assert!(ArchivePath::new("../escape").is_err());
/// # Ok::<(), gear_archive::PathError>(())
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ArchivePath(String);

/// Error constructing an [`ArchivePath`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// The path was empty.
    Empty,
    /// The path was absolute (leading `/`).
    Absolute,
    /// A component was empty, `.`, or `..`.
    BadComponent {
        /// The offending component.
        component: String,
    },
    /// The path contained a NUL byte.
    Nul,
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::Empty => write!(f, "archive path is empty"),
            PathError::Absolute => write!(f, "archive path must be relative"),
            PathError::BadComponent { component } => {
                write!(f, "invalid path component {component:?}")
            }
            PathError::Nul => write!(f, "archive path contains a NUL byte"),
        }
    }
}

impl Error for PathError {}

impl ArchivePath {
    /// Validates and normalizes `path` (trailing slashes are stripped).
    ///
    /// # Errors
    ///
    /// Returns [`PathError`] for empty, absolute, traversal (`..`), or
    /// NUL-containing input.
    pub fn new(path: impl AsRef<str>) -> Result<Self, PathError> {
        let raw = path.as_ref();
        if raw.contains('\0') {
            return Err(PathError::Nul);
        }
        if raw.starts_with('/') {
            return Err(PathError::Absolute);
        }
        let trimmed = raw.trim_end_matches('/');
        if trimmed.is_empty() {
            return Err(PathError::Empty);
        }
        for component in trimmed.split('/') {
            if component.is_empty() || component == "." || component == ".." {
                return Err(PathError::BadComponent { component: component.to_owned() });
            }
        }
        Ok(ArchivePath(trimmed.to_owned()))
    }

    /// The normalized path string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Iterates over `/`-separated components.
    pub fn components(&self) -> impl Iterator<Item = &str> {
        self.0.split('/')
    }

    /// Number of components.
    pub fn depth(&self) -> usize {
        self.components().count()
    }

    /// Final component.
    pub fn file_name(&self) -> &str {
        self.0.rsplit_once('/').map_or(&self.0, |(_, name)| name)
    }

    /// Everything before the final component, or `None` at the top level.
    pub fn parent(&self) -> Option<ArchivePath> {
        self.0.rfind('/').map(|i| ArchivePath(self.0[..i].to_owned()))
    }

    /// Appends a single component, validating it.
    ///
    /// # Errors
    ///
    /// Returns [`PathError::BadComponent`] if `component` is empty, `.`,
    /// `..`, or contains `/` or NUL.
    pub fn join(&self, component: &str) -> Result<ArchivePath, PathError> {
        if component.is_empty()
            || component == "."
            || component == ".."
            || component.contains('/')
        {
            return Err(PathError::BadComponent { component: component.to_owned() });
        }
        if component.contains('\0') {
            return Err(PathError::Nul);
        }
        Ok(ArchivePath(format!("{}/{}", self.0, component)))
    }

    /// Whether `self` is `other` or lies underneath it.
    pub fn starts_with(&self, other: &ArchivePath) -> bool {
        self.0 == other.0
            || (self.0.len() > other.0.len()
                && self.0.starts_with(&other.0)
                && self.0.as_bytes()[other.0.len()] == b'/')
    }
}

impl fmt::Display for ArchivePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for ArchivePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ArchivePath({:?})", self.0)
    }
}

impl AsRef<str> for ArchivePath {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl std::str::FromStr for ArchivePath {
    type Err = PathError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ArchivePath::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_normal_paths() {
        for p in ["a", "a/b", "usr/lib/x86_64/libc.so.6", "weird name/with space"] {
            assert!(ArchivePath::new(p).is_ok(), "{p}");
        }
    }

    #[test]
    fn strips_trailing_slash() {
        assert_eq!(ArchivePath::new("etc/").unwrap().as_str(), "etc");
    }

    #[test]
    fn rejects_invalid() {
        assert_eq!(ArchivePath::new(""), Err(PathError::Empty));
        assert_eq!(ArchivePath::new("/abs"), Err(PathError::Absolute));
        assert!(matches!(ArchivePath::new("a//b"), Err(PathError::BadComponent { .. })));
        assert!(matches!(ArchivePath::new("a/./b"), Err(PathError::BadComponent { .. })));
        assert!(matches!(ArchivePath::new("../up"), Err(PathError::BadComponent { .. })));
        assert_eq!(ArchivePath::new("a\0b"), Err(PathError::Nul));
    }

    #[test]
    fn parent_and_file_name() {
        let p = ArchivePath::new("a/b/c").unwrap();
        assert_eq!(p.file_name(), "c");
        assert_eq!(p.parent().unwrap().as_str(), "a/b");
        assert_eq!(ArchivePath::new("top").unwrap().parent(), None);
    }

    #[test]
    fn join_validates() {
        let p = ArchivePath::new("a").unwrap();
        assert_eq!(p.join("b").unwrap().as_str(), "a/b");
        assert!(p.join("..").is_err());
        assert!(p.join("x/y").is_err());
        assert!(p.join("").is_err());
    }

    #[test]
    fn starts_with_component_boundaries() {
        let root = ArchivePath::new("usr/lib").unwrap();
        assert!(ArchivePath::new("usr/lib").unwrap().starts_with(&root));
        assert!(ArchivePath::new("usr/lib/a").unwrap().starts_with(&root));
        assert!(!ArchivePath::new("usr/lib64").unwrap().starts_with(&root));
        assert!(!ArchivePath::new("usr").unwrap().starts_with(&root));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [
            ArchivePath::new("b").unwrap(),
            ArchivePath::new("a/z").unwrap(),
            ArchivePath::new("a").unwrap(),
        ];
        v.sort();
        let strs: Vec<_> = v.iter().map(|p| p.as_str()).collect();
        assert_eq!(strs, ["a", "a/z", "b"]);
    }
}
