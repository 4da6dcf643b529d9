//! The h5lite container format: groups, datasets, attributes.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Format errors.
#[derive(Debug)]
pub enum H5Error {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Bad magic, version, truncation, or structural garbage.
    Format(String),
    /// Checksum mismatch: the file is corrupt.
    Corrupt { expected: u64, found: u64 },
    /// A path component does not exist.
    NotFound(String),
    /// An error annotated with the on-disk file it occurred on.
    AtPath { path: String, source: Box<H5Error> },
}

impl H5Error {
    /// Annotate this error with the file path it came from.
    pub fn at(self, path: &Path) -> H5Error {
        H5Error::AtPath { path: path.display().to_string(), source: Box::new(self) }
    }

    /// The root cause, unwrapping any path annotation.
    pub fn root_cause(&self) -> &H5Error {
        match self {
            H5Error::AtPath { source, .. } => source.root_cause(),
            other => other,
        }
    }
}

impl fmt::Display for H5Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            H5Error::Io(e) => write!(f, "i/o error: {e}"),
            H5Error::Format(m) => write!(f, "format error: {m}"),
            H5Error::Corrupt { expected, found } => {
                write!(f, "checksum mismatch: expected {expected:#x}, found {found:#x}")
            }
            H5Error::NotFound(p) => write!(f, "path not found: {p}"),
            H5Error::AtPath { path, source } => write!(f, "{path}: {source}"),
        }
    }
}

impl std::error::Error for H5Error {}

impl From<std::io::Error> for H5Error {
    fn from(e: std::io::Error) -> Self {
        H5Error::Io(e)
    }
}

type Result<T> = std::result::Result<T, H5Error>;

/// An attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    F64(f64),
    I64(i64),
    Str(String),
}

/// A typed, shaped array.
#[derive(Debug, Clone, PartialEq)]
pub enum Dataset {
    /// Row-major f64 array.
    F64 { shape: Vec<usize>, data: Vec<f64> },
    /// Row-major i64 array.
    I64 { shape: Vec<usize>, data: Vec<i64> },
}

impl Dataset {
    /// Build an f64 dataset, checking shape/data consistency.
    pub fn f64(shape: Vec<usize>, data: Vec<f64>) -> Self {
        assert_eq!(shape.iter().product::<usize>(), data.len(), "shape/data mismatch");
        Dataset::F64 { shape, data }
    }

    /// Build an i64 dataset.
    pub fn i64(shape: Vec<usize>, data: Vec<i64>) -> Self {
        assert_eq!(shape.iter().product::<usize>(), data.len(), "shape/data mismatch");
        Dataset::I64 { shape, data }
    }

    /// The dataset's shape.
    pub fn shape(&self) -> &[usize] {
        match self {
            Dataset::F64 { shape, .. } | Dataset::I64 { shape, .. } => shape,
        }
    }

    /// The f64 payload, if this is an f64 dataset.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Dataset::F64 { data, .. } => Some(data),
            Dataset::I64 { .. } => None,
        }
    }

    /// The i64 payload, if this is an i64 dataset.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            Dataset::I64 { data, .. } => Some(data),
            Dataset::F64 { .. } => None,
        }
    }
}

/// A group: attributes, datasets, subgroups — all name-ordered for
/// deterministic encoding.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Group {
    pub attrs: BTreeMap<String, Value>,
    pub datasets: BTreeMap<String, Dataset>,
    pub groups: BTreeMap<String, Group>,
}

impl Group {
    fn get_group(&self, name: &str) -> Result<&Group> {
        self.groups.get(name).ok_or_else(|| H5Error::NotFound(name.to_string()))
    }

    fn get_or_create_group(&mut self, name: &str) -> &mut Group {
        self.groups.entry(name.to_string()).or_default()
    }
}

/// An in-memory h5lite file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct File {
    /// The root group.
    pub root: Group,
}

const MAGIC: &[u8; 4] = b"H5LT";
/// Current container version.  v2 adds a CRC-32 after every dataset so
/// corruption is pinned to the dataset it hit; v1 files (whole-payload
/// checksum only) are still readable.
const VERSION: u16 = 2;
const MIN_VERSION: u16 = 1;

impl File {
    /// An empty file.
    pub fn new() -> Self {
        File::default()
    }

    fn split_path(path: &str) -> (Vec<&str>, &str) {
        let mut parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
        let leaf = parts.pop().unwrap_or("");
        (parts, leaf)
    }

    /// Write (or overwrite) a dataset at `path`, creating intermediate
    /// groups.
    pub fn write_dataset(&mut self, path: &str, ds: Dataset) {
        let (dirs, leaf) = Self::split_path(path);
        assert!(!leaf.is_empty(), "dataset path must have a name");
        let mut g = &mut self.root;
        for d in dirs {
            g = g.get_or_create_group(d);
        }
        g.datasets.insert(leaf.to_string(), ds);
    }

    /// Set an attribute at `path` (the leaf is the attribute name; the
    /// prefix is the owning group, created on demand).
    pub fn set_attr(&mut self, path: &str, v: Value) {
        let (dirs, leaf) = Self::split_path(path);
        assert!(!leaf.is_empty(), "attribute path must have a name");
        let mut g = &mut self.root;
        for d in dirs {
            g = g.get_or_create_group(d);
        }
        g.attrs.insert(leaf.to_string(), v);
    }

    /// Look up a dataset by path.
    pub fn dataset(&self, path: &str) -> Result<&Dataset> {
        let (dirs, leaf) = Self::split_path(path);
        let mut g = &self.root;
        for d in dirs {
            g = g.get_group(d)?;
        }
        g.datasets.get(leaf).ok_or_else(|| H5Error::NotFound(path.to_string()))
    }

    /// Look up an attribute by path.
    pub fn attr(&self, path: &str) -> Result<&Value> {
        let (dirs, leaf) = Self::split_path(path);
        let mut g = &self.root;
        for d in dirs {
            g = g.get_group(d)?;
        }
        g.attrs.get(leaf).ok_or_else(|| H5Error::NotFound(path.to_string()))
    }

    /// Look up a group by path.
    pub fn group(&self, path: &str) -> Result<&Group> {
        let mut g = &self.root;
        for d in path.split('/').filter(|p| !p.is_empty()) {
            g = g.get_group(d)?;
        }
        Ok(g)
    }

    /// Serialize to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_group(&self.root, &mut payload);
        let mut out = Vec::with_capacity(payload.len() + 22);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let sum = fnv1a64(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Deserialize from bytes, validating magic, version, length, and
    /// checksum (whole-payload always; per-dataset CRC-32 on v2 files).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 22 {
            return Err(H5Error::Format("file shorter than header".into()));
        }
        if &bytes[0..4] != MAGIC {
            return Err(H5Error::Format("bad magic".into()));
        }
        let version = u16::from_le_bytes(sized(&bytes[4..6])?);
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(H5Error::Format(format!(
                "unsupported version {version} (this build reads {MIN_VERSION}..={VERSION})"
            )));
        }
        let plen = u64::from_le_bytes(sized(&bytes[6..14])?) as usize;
        if bytes.len() != 14 + plen + 8 {
            return Err(H5Error::Format(format!(
                "length mismatch: header says {plen} payload bytes, file has {}",
                bytes.len().saturating_sub(22)
            )));
        }
        let payload = &bytes[14..14 + plen];
        let found = u64::from_le_bytes(sized(&bytes[14 + plen..])?);
        let expected = fnv1a64(payload);
        if found != expected {
            return Err(H5Error::Corrupt { expected, found });
        }
        let mut cur = Cursor { b: payload, at: 0, version };
        let root = decode_group(&mut cur)?;
        if cur.at != payload.len() {
            return Err(H5Error::Format("trailing bytes after root group".into()));
        }
        Ok(File { root })
    }

    /// Write to disk atomically: the bytes land in a `.tmp` sibling
    /// first and are renamed into place, so a crash mid-write can never
    /// leave a truncated file under the final name.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_bytes()).map_err(|e| H5Error::Io(e).at(&tmp))?;
        std::fs::rename(&tmp, path).map_err(|e| H5Error::Io(e).at(path))?;
        Ok(())
    }

    /// Read from disk.  Errors carry the file path.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| H5Error::Io(e).at(path))?;
        Self::from_bytes(&bytes).map_err(|e| e.at(path))
    }
}

/// Infallible-by-construction slice→array conversion that still returns
/// a typed error instead of panicking if a caller miscounts.
fn sized<const N: usize>(s: &[u8]) -> Result<[u8; N]> {
    s.try_into().map_err(|_| H5Error::Format("short fixed-width field".into()))
}

/// FNV-1a 64-bit: small, fast, good enough to catch corruption (this is
/// an integrity check, not a cryptographic one).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the per-dataset
/// integrity check added in format v2.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ---- encoding ----

fn put_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::F64(x) => {
            out.push(0);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::I64(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(2);
            put_str(s, out);
        }
    }
}

fn encode_dataset(d: &Dataset, out: &mut Vec<u8>) {
    let start = out.len();
    let shape = d.shape();
    out.extend_from_slice(&(shape.len() as u32).to_le_bytes());
    for &s in shape {
        out.extend_from_slice(&(s as u64).to_le_bytes());
    }
    match d {
        Dataset::F64 { data, .. } => {
            out.push(0);
            for x in data {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        Dataset::I64 { data, .. } => {
            out.push(1);
            for x in data {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
    // v2: a CRC-32 over the encoded dataset (shape + tag + payload)
    // pins corruption to the dataset it hit.
    let sum = crc32(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

fn encode_group(g: &Group, out: &mut Vec<u8>) {
    out.extend_from_slice(&(g.attrs.len() as u32).to_le_bytes());
    for (k, v) in &g.attrs {
        put_str(k, out);
        encode_value(v, out);
    }
    out.extend_from_slice(&(g.datasets.len() as u32).to_le_bytes());
    for (k, d) in &g.datasets {
        put_str(k, out);
        encode_dataset(d, out);
    }
    out.extend_from_slice(&(g.groups.len() as u32).to_le_bytes());
    for (k, sub) in &g.groups {
        put_str(k, out);
        encode_group(sub, out);
    }
}

// ---- decoding ----

struct Cursor<'a> {
    b: &'a [u8],
    at: usize,
    /// Container version being decoded (controls per-dataset CRCs).
    version: u16,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.at + n > self.b.len() {
            return Err(H5Error::Format("unexpected end of payload".into()));
        }
        let s = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(sized(self.take(4)?)?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(sized(self.take(8)?)?))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(sized(self.take(8)?)?))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(sized(self.take(8)?)?))
    }

    fn string(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| H5Error::Format("invalid utf-8 name".into()))
    }
}

fn decode_value(c: &mut Cursor) -> Result<Value> {
    match c.u8()? {
        0 => Ok(Value::F64(c.f64()?)),
        1 => Ok(Value::I64(c.i64()?)),
        2 => Ok(Value::Str(c.string()?)),
        t => Err(H5Error::Format(format!("unknown value tag {t}"))),
    }
}

fn decode_dataset(c: &mut Cursor) -> Result<Dataset> {
    let start = c.at;
    let rank = c.u32()? as usize;
    if rank > 16 {
        return Err(H5Error::Format(format!("implausible dataset rank {rank}")));
    }
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        shape.push(c.u64()? as usize);
    }
    let len: usize = shape.iter().product();
    // Sanity-bound against corrupted lengths before allocating.
    if len.saturating_mul(8) > c.b.len() - c.at + 8 {
        return Err(H5Error::Format("dataset length exceeds payload".into()));
    }
    let ds = match c.u8()? {
        0 => {
            let mut data = Vec::with_capacity(len);
            for _ in 0..len {
                data.push(c.f64()?);
            }
            Dataset::F64 { shape, data }
        }
        1 => {
            let mut data = Vec::with_capacity(len);
            for _ in 0..len {
                data.push(c.i64()?);
            }
            Dataset::I64 { shape, data }
        }
        t => return Err(H5Error::Format(format!("unknown dataset tag {t}"))),
    };
    if c.version >= 2 {
        let expected = crc32(&c.b[start..c.at]);
        let found = u32::from_le_bytes(sized(c.take(4)?)?);
        if found != expected {
            return Err(H5Error::Corrupt { expected: expected as u64, found: found as u64 });
        }
    }
    Ok(ds)
}

fn decode_group(c: &mut Cursor) -> Result<Group> {
    let mut g = Group::default();
    for _ in 0..c.u32()? {
        let k = c.string()?;
        g.attrs.insert(k, decode_value(c)?);
    }
    for _ in 0..c.u32()? {
        let k = c.string()?;
        g.datasets.insert(k, decode_dataset(c)?);
    }
    for _ in 0..c.u32()? {
        let k = c.string()?;
        g.groups.insert(k, decode_group(c)?);
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> File {
        let mut f = File::new();
        f.set_attr("code", Value::Str("V2D".into()));
        f.set_attr("run/timestep", Value::I64(42));
        f.set_attr("run/time", Value::F64(1.25e-3));
        f.write_dataset(
            "run/radiation/erad",
            Dataset::f64(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        );
        f.write_dataset("run/grid/dims", Dataset::i64(vec![2], vec![200, 100]));
        f
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let f = sample();
        let g = File::from_bytes(&f.to_bytes()).expect("roundtrip");
        assert_eq!(f, g);
        assert_eq!(g.attr("run/timestep").unwrap(), &Value::I64(42));
        assert_eq!(g.dataset("run/radiation/erad").unwrap().as_f64().unwrap()[4], 5.0);
    }

    #[test]
    fn disk_roundtrip() {
        let dir = std::env::temp_dir().join("h5lite_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.h5l");
        sample().save(&path).unwrap();
        let g = File::open(&path).unwrap();
        assert_eq!(g, sample());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        match File::from_bytes(&bytes) {
            Err(H5Error::Corrupt { .. }) | Err(H5Error::Format(_)) => {}
            other => panic!("corruption not detected: {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().to_bytes();
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(File::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(File::from_bytes(&bytes), Err(H5Error::Format(_))));
    }

    #[test]
    fn missing_paths_report_not_found() {
        let f = sample();
        assert!(matches!(f.dataset("run/nope"), Err(H5Error::NotFound(_))));
        assert!(matches!(f.attr("nothing"), Err(H5Error::NotFound(_))));
        assert!(matches!(f.group("run/void"), Err(H5Error::NotFound(_))));
    }

    #[test]
    fn overwrite_replaces_dataset() {
        let mut f = sample();
        f.write_dataset("run/grid/dims", Dataset::i64(vec![2], vec![8, 8]));
        assert_eq!(f.dataset("run/grid/dims").unwrap().as_i64().unwrap(), &[8, 8]);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn shape_mismatch_panics() {
        let _ = Dataset::f64(vec![2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn dataset_crc_catches_payload_corruption() {
        // Flip one byte inside a dataset payload and *repair* the
        // whole-file FNV checksum: only the per-dataset CRC-32 can
        // catch it then.
        let mut bytes = sample().to_bytes();
        let plen = u64::from_le_bytes(bytes[6..14].try_into().unwrap()) as usize;
        bytes[14 + plen / 2] ^= 0x01;
        let sum = fnv1a64(&bytes[14..14 + plen]);
        let end = bytes.len();
        bytes[end - 8..].copy_from_slice(&sum.to_le_bytes());
        match File::from_bytes(&bytes) {
            Err(H5Error::Corrupt { .. }) | Err(H5Error::Format(_)) => {}
            other => panic!("dataset corruption not detected: {other:?}"),
        }
    }

    #[test]
    fn v1_files_still_decode() {
        // v1 = same container, no per-dataset CRCs.  An attrs-only file
        // has a version-independent payload, so rewriting the header
        // version field produces a genuine v1 file.
        let mut f = File::new();
        f.set_attr("run/timestep", Value::I64(7));
        let mut bytes = f.to_bytes();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let g = File::from_bytes(&bytes).expect("v1 decode");
        assert_eq!(g.attr("run/timestep").unwrap(), &Value::I64(7));
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[4..6].copy_from_slice(&99u16.to_le_bytes());
        assert!(matches!(File::from_bytes(&bytes), Err(H5Error::Format(_))));
    }

    #[test]
    fn save_leaves_no_tmp_file() {
        let dir = std::env::temp_dir().join("h5lite_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.h5l");
        sample().save(&path).unwrap();
        assert!(path.exists());
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists(), "tmp sibling left behind");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_error_names_the_path() {
        let err = File::open("/nonexistent/v2d/checkpoint.h5l").unwrap_err();
        assert!(err.to_string().contains("/nonexistent/v2d/checkpoint.h5l"));
        assert!(matches!(err.root_cause(), H5Error::Io(_)));
    }

    #[test]
    fn empty_file_roundtrips() {
        let f = File::new();
        assert_eq!(File::from_bytes(&f.to_bytes()).unwrap(), f);
    }

    #[test]
    fn deterministic_encoding() {
        // BTreeMaps make byte output independent of insertion order.
        let mut a = File::new();
        a.set_attr("z", Value::I64(1));
        a.set_attr("a", Value::I64(2));
        let mut b = File::new();
        b.set_attr("a", Value::I64(2));
        b.set_attr("z", Value::I64(1));
        assert_eq!(a.to_bytes(), b.to_bytes());
    }
}
