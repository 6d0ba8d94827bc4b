//! Integration tests composing hetsim's pieces into small simulations.

use hetsim::{
    DeviceKind, DeviceProfile, DeviceTimeline, EnergyMeter, Interconnect, MemoryTracker, SimTime,
};

/// Two devices fed by one bus: transfers serialize, devices overlap.
#[test]
fn bus_contention_shapes_the_schedule() {
    let mut bus = Interconnect::new(1.0e9, 0.0);
    let mut fast = DeviceTimeline::new(DeviceProfile::jetson_gpu(1.0e9));
    let mut slow = DeviceTimeline::new(DeviceProfile::edge_tpu(0.5e9));

    // Both devices need 0.5 GB in before computing 1e9 work units.
    let t1 = bus.transfer(SimTime::ZERO, 500_000_000);
    let t2 = bus.transfer(SimTime::ZERO, 500_000_000);
    assert_eq!(t1.end, t2.start, "second transfer queues behind the first");

    let f_done = fast.execute(t1.end, 1.0e9);
    let s_done = slow.execute(t2.end, 1.0e9);
    // Fast device: data at 0.5s + 1s compute. Slow: data at 1.0s + 2s.
    assert!((f_done.as_secs() - 1.5).abs() < 1e-3);
    assert!((s_done.as_secs() - 3.0).abs() < 1e-2);
    // The slow device's wait on the bus is visible.
    assert!(slow.transfer_wait() > 0.9);
}

/// Energy accounting over a two-device schedule matches hand arithmetic.
#[test]
fn energy_meter_integrates_schedule() {
    let gpu = DeviceProfile::jetson_gpu(1.0e9);
    let tpu = DeviceProfile::edge_tpu(2.0e9);
    let mut m_gpu = DeviceTimeline::new(gpu);
    let mut m_tpu = DeviceTimeline::new(tpu);
    m_gpu.execute(SimTime::ZERO, 2.0e9); // 2 s busy
    m_tpu.execute(SimTime::ZERO, 2.0e9); // 1 s busy

    let mut meter = EnergyMeter::jetson_prototype();
    meter.record_busy(DeviceKind::Gpu, m_gpu.busy_time(), gpu.active_power_w);
    meter.record_busy(DeviceKind::EdgeTpu, m_tpu.busy_time(), tpu.active_power_w);
    let makespan = m_gpu.free_at().max(m_tpu.free_at()).as_secs();
    let breakdown = meter.finish(makespan);

    // Idle floor: 3.02 W x ~2 s; active: 1.65x2 + 0.56x1.
    assert!((breakdown.idle_j - 3.02 * makespan).abs() < 1e-6);
    assert!(
        (breakdown.active_j - (1.65 * m_gpu.busy_time() + 0.56 * m_tpu.busy_time())).abs() < 1e-3
    );
    assert!(breakdown.total_j() > breakdown.idle_j);
}

/// Memory tracker composes with a simulated double-buffered pipeline.
#[test]
fn memory_peaks_under_double_buffering() {
    let mut mem = MemoryTracker::new();
    mem.alloc("dataset", 1000);
    // Two staging buffers in flight at the peak.
    for _ in 0..10 {
        mem.alloc("staging", 50);
        mem.alloc("staging", 50);
        mem.free(50);
        mem.free(50);
    }
    assert_eq!(mem.peak_bytes(), 1100);
    assert_eq!(mem.current_bytes(), 1000);
    assert_eq!(mem.class_bytes("staging"), 1000);
}

/// Device memory capacity is visible for the runtime's HLOP fission rule.
#[test]
fn edge_tpu_capacity_is_exposed() {
    let tpu = DeviceProfile::edge_tpu(1.0e9);
    assert_eq!(tpu.device_memory_bytes, Some(8 * 1024 * 1024));
    assert!(DeviceProfile::jetson_gpu(1.0e9)
        .device_memory_bytes
        .is_none());
}

/// stall_until never rewinds a timeline.
#[test]
fn stall_is_monotone() {
    let mut d = DeviceTimeline::new(DeviceProfile::arm_cpu(1.0e9));
    let end = d.execute(SimTime::ZERO, 1.0e9);
    d.stall_until(SimTime::from_secs(0.5)); // earlier than free_at: no-op
    assert_eq!(d.free_at(), end);
    d.stall_until(SimTime::from_secs(2.0));
    assert_eq!(d.free_at(), SimTime::from_secs(2.0));
    assert!((d.transfer_wait() - 1.0).abs() < 1e-4); // modulo launch overhead
}
