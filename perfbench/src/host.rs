//! What every result record is stamped with: the host, the toolchain and
//! the source revision that produced it.

use dta_json::{fnv1a128, Json};
use std::path::Path;
use std::process::Command;

/// The 1-, 5- and 15-minute load averages (`None` off Linux).
pub fn loadavg() -> Option<[f64; 3]> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    let mut it = text.split_whitespace().map(|v| v.parse().ok());
    Some([it.next()??, it.next()??, it.next()??])
}

/// A memory field of `/proc/self/status` (`VmRSS`, `VmHWM`), in MiB.
pub fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))
}

/// First line of a command's standard output (`None` if it fails).
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(str::to_string)
}

/// The revision checked out in the working directory, if the working
/// directory is itself the top of a git work tree (an enclosing
/// repository's revision would name other code).
fn git_rev() -> Option<String> {
    let top = command_line("git", &["rev-parse", "--show-toplevel"])?;
    let here = std::env::current_dir().ok()?.canonicalize().ok()?;
    if Path::new(&top).canonicalize().ok()? != here {
        return None;
    }
    command_line("git", &["rev-parse", "HEAD"])
}

/// A content hash of the simulator's sources (`crates/` and the root
/// manifest), which identifies the code even where git does not.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        if let Ok(data) = std::fs::read(&f) {
            bytes.extend_from_slice(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            bytes.push(0);
            bytes.extend_from_slice(&(data.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&data);
        }
    }
    format!("{:032x}", fnv1a128(&bytes))
}

/// The host fingerprint, taken once before the run.
pub struct Fingerprint {
    nproc: usize,
    git_rev: Option<String>,
    src_digest: String,
    rustc: Option<String>,
    load_before: Option<[f64; 3]>,
}

impl Fingerprint {
    /// Fingerprints the host and the checkout in the working directory.
    pub fn take() -> Fingerprint {
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            git_rev: git_rev(),
            src_digest: source_digest(Path::new(".")),
            rustc: command_line(&rustc, &["-V"]),
            load_before: loadavg(),
        }
    }

    /// The fingerprint, with the load average now as the `after` value.
    pub fn to_json(&self) -> Json {
        let opt_str = |s: &Option<String>| s.clone().map_or(Json::Null, Json::Str);
        let load = |l: Option<[f64; 3]>| {
            l.map_or(Json::Null, |l| {
                Json::Arr(l.iter().map(|&v| Json::Num(v)).collect())
            })
        };
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("git_rev", opt_str(&self.git_rev)),
            ("src_digest", Json::Str(self.src_digest.clone())),
            ("rustc", opt_str(&self.rustc)),
            ("loadavg_before", load(self.load_before)),
            ("loadavg_after", load(loadavg())),
        ])
    }
}
