//! A crash-safe, content-addressed on-disk store for evaluation-key
//! payloads, layered **under** the server's in-memory LRU so warm session
//! resumption survives server restarts.
//!
//! Layout and trust model:
//!
//! * Entries are addressed by the BLAKE2b-256 fingerprint from
//!   `eva_wire::fingerprint` — the file at `<root>/ab/<64 hex>.evakeys`
//!   holds the raw `EvalKeys` frame payload, which is exactly the
//!   fingerprint's input. Content addressing makes writes idempotent and
//!   collisions a non-event.
//! * Writes are **atomic**: the payload is written to a hidden temp file in
//!   the same directory, `fsync`ed, then `rename`d into place. A crash
//!   mid-write leaves either the old entry or a stray temp file — never a
//!   truncated entry under a valid name.
//! * Loads **re-verify the fingerprint** over the bytes read back. The disk
//!   is not trusted: a corrupt, truncated or tampered file fails the hash,
//!   is deleted, and the server falls back to asking the client for a fresh
//!   upload. Nothing that fails verification is ever decoded, let alone
//!   served. The same holds for an entry written by a build that
//!   fingerprinted with SHA-256: an old ticket still names it, its bytes
//!   no longer hash to that name, and it is deleted on first load.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use eva_wire::{fingerprint_eval_key_payload, KeyFingerprint};

/// The disk-backed evaluation-key store (see the module docs for the
/// layout, atomicity and trust rules).
#[derive(Debug)]
pub struct DiskKeyStore {
    root: PathBuf,
    /// Distinguishes concurrent temp files within one process; the pid in
    /// the temp name distinguishes processes sharing a store directory.
    temp_counter: AtomicU64,
}

impl DiskKeyStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the root directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            temp_counter: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path an entry for `fingerprint` lives at (whether or not it
    /// exists) — two-hex-char fan-out directory, then the full digest.
    pub fn entry_path(&self, fingerprint: &KeyFingerprint) -> PathBuf {
        let digest = fingerprint.to_string();
        self.root
            .join(&digest[..2])
            .join(format!("{digest}.evakeys"))
    }

    /// Atomically persists an evaluation-key payload under its fingerprint.
    /// The caller passes both because the server has already computed the
    /// fingerprint over these exact bytes; a mismatched pair would poison
    /// the store, so it is checked.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] if `payload` does not hash to
    /// `fingerprint`, otherwise the underlying I/O error.
    pub fn store(&self, fingerprint: &KeyFingerprint, payload: &[u8]) -> io::Result<()> {
        if fingerprint_eval_key_payload(payload) != *fingerprint {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "payload does not hash to the given fingerprint",
            ));
        }
        let path = self.entry_path(fingerprint);
        let dir = path.parent().expect("entry paths always have a parent");
        fs::create_dir_all(dir)?;
        let temp = dir.join(format!(
            ".{}.{}.{}.tmp",
            fingerprint,
            std::process::id(),
            self.temp_counter.fetch_add(1, Ordering::Relaxed),
        ));
        // Write + fsync the temp file, then rename into place: readers see
        // either nothing or the complete entry, never a torn write.
        let result = (|| {
            let mut file = fs::File::create(&temp)?;
            file.write_all(payload)?;
            file.sync_all()?;
            drop(file);
            fs::rename(&temp, &path)
        })();
        if result.is_err() {
            let _ = fs::remove_file(&temp);
        }
        result
    }

    /// Loads the payload stored under `fingerprint`, **re-verifying the
    /// fingerprint over the bytes read back**. Returns `None` if the entry
    /// is absent or fails verification — a failing file is deleted on the
    /// spot (evicted, never trusted), so the next session re-uploads.
    pub fn load(&self, fingerprint: &KeyFingerprint) -> Option<Vec<u8>> {
        let path = self.entry_path(fingerprint);
        let payload = fs::read(&path).ok()?;
        if fingerprint_eval_key_payload(&payload) != *fingerprint {
            let _ = fs::remove_file(&path);
            return None;
        }
        Some(payload)
    }

    /// Removes the entry for `fingerprint`, if present.
    pub fn remove(&self, fingerprint: &KeyFingerprint) {
        let _ = fs::remove_file(self.entry_path(fingerprint));
    }

    /// Number of entries currently on disk (walks the fan-out directories;
    /// intended for tests and operational introspection, not hot paths).
    pub fn len(&self) -> usize {
        let Ok(prefixes) = fs::read_dir(&self.root) else {
            return 0;
        };
        prefixes
            .flatten()
            .filter_map(|p| fs::read_dir(p.path()).ok())
            .flat_map(|entries| entries.flatten())
            .filter(|e| e.path().extension().is_some_and(|ext| ext == "evakeys"))
            .count()
    }

    /// Whether the store currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> DiskKeyStore {
        let dir =
            std::env::temp_dir().join(format!("eva-keystore-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        DiskKeyStore::open(dir).unwrap()
    }

    #[test]
    fn roundtrips_a_payload_under_its_fingerprint() {
        let store = temp_store("roundtrip");
        let payload = b"not real keys, but faithful bytes".to_vec();
        let fingerprint = fingerprint_eval_key_payload(&payload);
        assert!(store.is_empty());
        store.store(&fingerprint, &payload).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.load(&fingerprint).as_deref(),
            Some(payload.as_slice())
        );
        // Storing again is an idempotent overwrite.
        store.store(&fingerprint, &payload).unwrap();
        assert_eq!(store.len(), 1);
        store.remove(&fingerprint);
        assert!(store.load(&fingerprint).is_none());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn refuses_a_mismatched_fingerprint_on_store() {
        let store = temp_store("mismatch");
        let err = store
            .store(&KeyFingerprint([7; 32]), b"whatever")
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(store.is_empty());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_entries_are_evicted_never_trusted() {
        let store = temp_store("corrupt");
        let payload = vec![0xAB; 4096];
        let fingerprint = fingerprint_eval_key_payload(&payload);
        store.store(&fingerprint, &payload).unwrap();
        // Flip one byte on disk (bit rot / tampering)…
        let path = store.entry_path(&fingerprint);
        let mut bytes = fs::read(&path).unwrap();
        bytes[100] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        // …and the load both fails and deletes the file.
        assert!(store.load(&fingerprint).is_none());
        assert!(!path.exists(), "corrupt entry must be evicted");
        // Truncation is caught the same way.
        store.store(&fingerprint, &payload).unwrap();
        fs::write(&path, &payload[..1000]).unwrap();
        assert!(store.load(&fingerprint).is_none());
        assert!(!path.exists());
        let _ = fs::remove_dir_all(store.root());
    }
}
