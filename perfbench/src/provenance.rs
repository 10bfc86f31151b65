//! Provenance stamped on every result record: cores, toolchain, commit,
//! source digest, date and build profile.

use std::path::Path;
use std::time::UNIX_EPOCH;

use onion_crypto::sha256::Sha256;
use serde_json::Value;

use crate::clock;

/// Source trees whose bytes define the measured program.
const SOURCE_ROOTS: &[&str] = &["Cargo.lock", "crates", "vendor", "perfbench/src"];

pub fn record() -> Value {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    Value::Object(vec![
        (
            "available_parallelism".to_string(),
            Value::U64(cores as u64),
        ),
        (
            "rustc".to_string(),
            Value::Str(env!("PERFBENCH_RUSTC").to_string()),
        ),
        ("commit".to_string(), Value::Str(commit())),
        ("source_sha256".to_string(), Value::Str(source_digest())),
        ("date".to_string(), Value::Str(utc_now())),
        (
            "profile".to_string(),
            Value::Str(env!("PERFBENCH_PROFILE").to_string()),
        ),
    ])
}

/// The checked-out commit when the checkout is a git repository. A
/// plain source export has no history; its `source_sha256` identifies
/// the code instead.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unavailable (not a git checkout)".to_string())
}

/// SHA-256 over the relative path and bytes of every source file, in
/// sorted path order.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in SOURCE_ROOTS {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        if let Ok(content) = std::fs::read(&file) {
            bytes.extend_from_slice(file.to_string_lossy().as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(&content);
        }
    }
    onion_crypto::hex::encode(&Sha256::digest_array(&bytes))
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if name == "target" || name.to_string_lossy().starts_with('.') {
            continue;
        }
        collect(&path, out);
    }
}

/// `YYYY-MM-DDTHH:MM:SSZ` for the current time.
pub fn utc_now() -> String {
    let secs = clock::system_now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem / 60 % 60,
        rem % 60
    )
}
