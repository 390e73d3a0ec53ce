//! Host description and set-up guards.

use std::path::Path;

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// Cargo profile the benchmark (and the crates it drives) was built
    /// with.
    pub profile: &'static str,
    /// Commit of the checkout, when it is a git checkout.
    pub commit: String,
}

impl Host {
    /// Reads the host description. Fields that cannot be read say so
    /// instead of failing the run.
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|text| text.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Host {
            nproc: nproc(),
            cpu_model,
            kernel,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// Logical CPUs available to this process (1 if unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit `HEAD` names in the git checkout at `root`, read from the
/// `.git` directory without running git. `None` outside a git checkout.
pub fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (commit, name) = line.split_once(' ')?;
        (name == reference).then(|| commit.to_string())
    })
}

/// The filesystem type holding `dir`: the type of the longest mount point
/// in `/proc/self/mountinfo` that contains the directory.
pub fn fs_type(dir: &Path) -> Result<String, String> {
    let dir = std::fs::canonicalize(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mounts = std::fs::read_to_string("/proc/self/mountinfo")
        .map_err(|e| format!("cannot read the mount table: {e}"))?;
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount_point), Some(dash)) =
            (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fs) = fields.get(dash + 1) else {
            continue;
        };
        let mount_point = Path::new(mount_point);
        if dir.starts_with(mount_point) {
            let depth = mount_point.components().count();
            if best.as_ref().is_none_or(|(d, _)| depth >= *d) {
                best = Some((depth, fs.to_string()));
            }
        }
    }
    best.map(|(_, fs)| fs)
        .ok_or_else(|| format!("no mount holds {}", dir.display()))
}

/// Refuses a write-ahead-log directory on a memory-backed filesystem:
/// fsync there is free, so a durable workload on it measures a different
/// program.
pub fn refuse_memory_fs(fs: &str) -> Result<(), String> {
    if matches!(fs, "tmpfs" | "ramfs") {
        Err(format!(
            "the WAL directory is on {fs}, where fsync costs nothing; run the durable \
             workload from a checkout on a real disk"
        ))
    } else {
        Ok(())
    }
}

/// Refuses more client threads or connections than CPUs: the clients
/// would then compete with the program they measure.
pub fn refuse_oversubscribed(
    threads: usize,
    connections: usize,
    nproc: usize,
) -> Result<(), String> {
    if threads > nproc || connections > nproc {
        Err(format!(
            "{threads} client threads and {connections} connections exceed the {nproc} CPUs \
             of this host"
        ))
    } else {
        Ok(())
    }
}

/// Time the hypervisor ran other guests on this VM's CPUs since boot, in
/// clock ticks summed over CPUs (the `steal` column of `/proc/stat`); 0
/// where the kernel does not report it.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.strip_prefix("cpu ")?.to_string();
            cpu.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_filesystems_are_refused() {
        assert!(refuse_memory_fs("tmpfs").is_err());
        assert!(refuse_memory_fs("ramfs").is_err());
        assert!(refuse_memory_fs("ext4").is_ok());
    }

    #[test]
    fn oversubscription_is_refused() {
        assert!(refuse_oversubscribed(1, 2, 2).is_ok());
        assert!(refuse_oversubscribed(3, 2, 2).is_err());
        assert!(refuse_oversubscribed(1, 2, 1).is_err());
    }

    #[test]
    fn the_working_directory_has_a_filesystem_and_memory_is_measured() {
        assert!(!fs_type(Path::new(".")).unwrap().is_empty());
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
