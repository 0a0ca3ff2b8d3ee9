//! Small statistics the harness reports: nearest-rank percentiles, span
//! self time, shard imbalance and the kernel's peak-RSS reading.

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. Returns the value and how many samples
/// lie strictly beyond its rank.
pub fn percentile(samples: &[f64], p: f64) -> (f64, usize) {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], n - rank)
}

/// Median by the same nearest-rank rule as [`percentile`].
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).0
}

/// Each op's median over passes, from samples laid out pass after pass
/// with the ops of every pass in the same order. `None` when the samples
/// do not split into whole passes of `per_pass` ops.
pub fn per_op_medians(samples: &[f64], per_pass: usize) -> Option<Vec<f64>> {
    if per_pass == 0 || samples.is_empty() || !samples.len().is_multiple_of(per_pass) {
        return None;
    }
    let medians = (0..per_pass)
        .map(|op| {
            let own: Vec<f64> = samples[op..].iter().step_by(per_pass).copied().collect();
            median(&own)
        })
        .collect();
    Some(medians)
}

/// Self time of a span `[start, end)`: its length minus the part of it
/// that the union of its children's intervals covers. Children may
/// overlap each other and stick out of the parent; only the covered part
/// inside the parent counts.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// Load imbalance across workers: the busiest worker's busy time over the
/// mean. 1.0 is perfect balance; `n` means one of `n` workers did it all.
pub fn imbalance(busy: &[f64]) -> f64 {
    let total: f64 = busy.iter().sum();
    if busy.is_empty() || total <= 0.0 {
        return 1.0;
    }
    let max = busy.iter().copied().fold(f64::MIN, f64::max);
    max / (total / busy.len() as f64)
}

/// The `VmHWM` line (peak resident set, in KiB) of a `/proc/<pid>/status`
/// text.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// This process's peak resident set so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = parse_vm_hwm_kib(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 95.0), (190.0, 10));
        assert_eq!(percentile(&samples, 50.0), (100.0, 100));
        assert_eq!(percentile(&samples, 100.0), (200.0, 0));
        // Unsorted input and tiny sets.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), (2.0, 1));
        assert_eq!(percentile(&[7.0], 95.0), (7.0, 0));
        assert_eq!(percentile(&[5.0, 1.0], 0.0), (1.0, 1));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples_for_ten_beyond() {
        let beyond = |n: u32| percentile(&(0..n).map(f64::from).collect::<Vec<_>>(), 95.0).1;
        assert_eq!(beyond(199), 9);
        assert_eq!(beyond(200), 10);
        assert_eq!(beyond(480), 24);
    }

    #[test]
    fn per_op_medians_group_samples_by_position_in_the_pass() {
        // Three passes of two ops; op 0 has one slow pass, op 1 two.
        let samples = [1.0, 5.0, 9.0, 6.0, 1.2, 7.0];
        assert_eq!(per_op_medians(&samples, 2), Some(vec![1.2, 6.0]));
        // Nearest rank: the median of two passes is the faster one.
        assert_eq!(per_op_medians(&[2.0, 8.0, 3.0, 4.0], 2), Some(vec![2.0, 4.0]));
        assert_eq!(per_op_medians(&[1.0, 2.0, 3.0], 2), None);
        assert_eq!(per_op_medians(&[], 2), None);
        assert_eq!(per_op_medians(&[1.0], 0), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 50)]), 60);
        // Nested children (a grandchild passed as a child) add nothing.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30)]), 50);
        // Children are clipped to the parent.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time(10, 20, &[(0, 5)]), 10);
        // Fully covered.
        assert_eq!(self_time(0, 10, &[(0, 10)]), 0);
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        assert_eq!(imbalance(&[2.0, 2.0]), 1.0);
        assert!((imbalance(&[9.4, 2.3]) - 9.4 / 5.85).abs() < 1e-12);
        assert_eq!(imbalance(&[3.0, 0.0]), 2.0);
        assert_eq!(imbalance(&[0.0, 0.0]), 1.0);
        assert_eq!(imbalance(&[]), 1.0);
    }

    #[test]
    fn vm_hwm_parses_kib() {
        let status =
            "Name:\tarchbench\nVmPeak:\t  300000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(12345));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t100 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
    }
}
