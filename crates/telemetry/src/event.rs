//! The compact binary trace event.
//!
//! Every recorded event is exactly [`TraceEvent::ENCODED_LEN`] bytes on
//! disk: time (8) · component (4) · kind (1) · aux (1) · reserved (2) ·
//! two 64-bit operands whose meaning depends on the kind. Fixed-size
//! records keep recording allocation-free and make the file format
//! seekable; packing packet `flow` and `size` into one operand keeps the
//! record at 32 bytes (flows above 2³²−1 are truncated — simulation flows
//! are small integers).

use std::fmt;

/// Component-id encoding: links and actors share one `u32` namespace.
///
/// Bit 31 distinguishes the two: `0x8000_0000 | index` is a link,
/// a bare index is an actor. This matches `marnet-sim`'s `LinkId` /
/// `ActorId` index spaces without depending on that crate.
pub mod component {
    /// Flag bit marking a link component.
    pub const LINK_BIT: u32 = 0x8000_0000;

    /// The component id of link `index`.
    pub fn link(index: usize) -> u32 {
        LINK_BIT | (index as u32)
    }

    /// The component id of actor `index`.
    pub fn actor(index: usize) -> u32 {
        index as u32 & !LINK_BIT
    }

    /// `true` if `comp` names a link.
    pub fn is_link(comp: u32) -> bool {
        comp & LINK_BIT != 0
    }

    /// The raw link or actor index of `comp`.
    pub fn index(comp: u32) -> usize {
        (comp & !LINK_BIT) as usize
    }

    /// Human-readable component label (`link#3` / `actor#7`).
    pub fn label(comp: u32) -> String {
        if is_link(comp) {
            format!("link#{}", index(comp))
        } else {
            format!("actor#{}", index(comp))
        }
    }
}

/// What happened. The discriminants are the on-disk encoding; never reuse
/// or renumber a value.
///
/// A record is written only if no earlier record implies it. The one kind
/// that relies on this, [`TraceKind::PacketSendIdle`], stands for three
/// records of the other kinds; every reader sees traces through [`expand`],
/// which restores them, so readers only ever meet the other 22 kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TraceKind {
    /// A packet entered a link's transmit queue. `a` = packet id,
    /// `b` = `flow << 32 | size`, aux = priority band.
    PacketEnqueue = 0,
    /// A packet was dropped. `a` = packet id, `b` = `flow << 32 | size`,
    /// aux = [`DropReason`].
    PacketDrop = 1,
    /// A packet left a link's queue for serialization. `a` = packet id,
    /// `b` = queueing delay in nanoseconds (the bufferbloat signal).
    PacketDequeue = 2,
    /// A packet arrived at the far end of a link. `a` = packet id,
    /// `b` = `flow << 32 | size`.
    PacketDeliver = 3,
    /// A link transitioned idle → transmitting. `a` = queued packets,
    /// `b` = queued bytes (after the dequeue).
    LinkBusy = 4,
    /// A link transitioned transmitting → idle. `a`/`b` as [`TraceKind::LinkBusy`].
    LinkIdle = 5,
    /// A traffic class admitted a message for transmission.
    /// aux = class index, `a` = message id, `b` = bytes.
    ClassAdmit = 6,
    /// The degradation scheduler shed traffic. aux = severity level,
    /// `a` = messages shed, `b` = bytes shed.
    ClassDegrade = 7,
    /// FEC reconstructed a lost fragment. `a` = message id, `b` = fragment.
    FecRepair = 8,
    /// The multipath scheduler moved a class to another path.
    /// aux = class index, `a` = old path, `b` = new path.
    PathSwitch = 9,
    /// A frame/job was dispatched to a remote executor. aux = stream class,
    /// `a` = job id, `b` = payload bytes.
    OffloadDispatch = 10,
    /// A fault was injected into the simulation. aux = fault-kind code,
    /// `a` = target component id, `b` = kind-specific parameter.
    FaultInject = 11,
    /// A previously injected fault cleared. aux = fault-kind code,
    /// `a` = target component id, `b` = fault duration in nanoseconds.
    FaultClear = 12,
    /// An endpoint watchdog declared the peer unreachable.
    /// `a` = feedback silence in nanoseconds, `b` = paths still up.
    OutageDetect = 13,
    /// An endpoint heard from its peer again after an outage.
    /// `a` = outage duration in nanoseconds, `b` = probes sent meanwhile.
    OutageResolve = 14,
    /// An edge server crashed. `a` = session epoch at crash,
    /// `b` = 1 if session state was lost, 0 if it survived.
    EdgeCrash = 15,
    /// An edge server came back up. `a` = new session epoch,
    /// `b` = downtime in nanoseconds.
    EdgeRestart = 16,
    /// A sender re-established its session after an edge restart.
    /// `a` = old epoch, `b` = new epoch.
    SessionResync = 17,
    /// A recovery probe was sent during an outage. `a` = probe attempt
    /// number, `b` = current backoff delay in nanoseconds.
    RecoveryProbe = 18,
    /// A flow entered the fluid tier. aux = flow-class index,
    /// `a` = flow id, `b` = flow size in bytes.
    FlowStart = 19,
    /// A fluid flow completed. aux = flow-class index, `a` = flow id,
    /// `b` = flow duration in nanoseconds.
    FlowFinish = 20,
    /// A flow class's max-min fair rate changed after a recompute.
    /// aux = flow-class index, `a` = active flows in the class,
    /// `b` = new per-flow rate in bits per second.
    FlowRate = 21,
    /// A packet reached an idle link with an empty queue and went onto the
    /// wire in the same instant. It stands for the three records that
    /// [`expand`] restores: [`TraceKind::PacketEnqueue`] with these
    /// operands, [`TraceKind::PacketDequeue`] with delay 0 and
    /// [`TraceKind::LinkBusy`] with 0 packets / 0 bytes queued.
    /// `a` = packet id, `b` = `flow << 32 | size`, aux = priority band.
    PacketSendIdle = 22,
}

impl TraceKind {
    /// All kinds, in discriminant order.
    pub const ALL: [TraceKind; 23] = [
        TraceKind::PacketEnqueue,
        TraceKind::PacketDrop,
        TraceKind::PacketDequeue,
        TraceKind::PacketDeliver,
        TraceKind::LinkBusy,
        TraceKind::LinkIdle,
        TraceKind::ClassAdmit,
        TraceKind::ClassDegrade,
        TraceKind::FecRepair,
        TraceKind::PathSwitch,
        TraceKind::OffloadDispatch,
        TraceKind::FaultInject,
        TraceKind::FaultClear,
        TraceKind::OutageDetect,
        TraceKind::OutageResolve,
        TraceKind::EdgeCrash,
        TraceKind::EdgeRestart,
        TraceKind::SessionResync,
        TraceKind::RecoveryProbe,
        TraceKind::FlowStart,
        TraceKind::FlowFinish,
        TraceKind::FlowRate,
        TraceKind::PacketSendIdle,
    ];

    /// Decodes a discriminant byte.
    pub fn from_u8(v: u8) -> Option<TraceKind> {
        TraceKind::ALL.get(v as usize).copied()
    }

    /// The stable lowercase name used by `marnet-trace --kind`.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::PacketEnqueue => "enqueue",
            TraceKind::PacketDrop => "drop",
            TraceKind::PacketDequeue => "dequeue",
            TraceKind::PacketDeliver => "deliver",
            TraceKind::LinkBusy => "busy",
            TraceKind::LinkIdle => "idle",
            TraceKind::ClassAdmit => "admit",
            TraceKind::ClassDegrade => "degrade",
            TraceKind::FecRepair => "fec-repair",
            TraceKind::PathSwitch => "path-switch",
            TraceKind::OffloadDispatch => "offload",
            TraceKind::FaultInject => "fault-inject",
            TraceKind::FaultClear => "fault-clear",
            TraceKind::OutageDetect => "outage-detect",
            TraceKind::OutageResolve => "outage-resolve",
            TraceKind::EdgeCrash => "edge-crash",
            TraceKind::EdgeRestart => "edge-restart",
            TraceKind::SessionResync => "session-resync",
            TraceKind::RecoveryProbe => "recovery-probe",
            TraceKind::FlowStart => "flow-start",
            TraceKind::FlowFinish => "flow-finish",
            TraceKind::FlowRate => "flow-rate",
            TraceKind::PacketSendIdle => "send-idle",
        }
    }

    /// Parses a [`TraceKind::name`].
    pub fn from_name(name: &str) -> Option<TraceKind> {
        TraceKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a packet was dropped (the `aux` byte of [`TraceKind::PacketDrop`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DropReason {
    /// Transmit queue was full (tail drop, or FQ-CoDel fattest-flow drop).
    QueueFull = 0,
    /// Active queue management (CoDel control law) dropped at dequeue.
    Aqm = 1,
    /// The link's loss model lost the packet in flight.
    Loss = 2,
    /// The link was administratively down.
    LinkDown = 3,
    /// The sender shed the packet before the network (degradation/stale).
    Shed = 4,
}

impl DropReason {
    /// Decodes an `aux` byte.
    pub fn from_u8(v: u8) -> Option<DropReason> {
        [
            DropReason::QueueFull,
            DropReason::Aqm,
            DropReason::Loss,
            DropReason::LinkDown,
            DropReason::Shed,
        ]
        .get(v as usize)
        .copied()
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::QueueFull => "queue-full",
            DropReason::Aqm => "aqm",
            DropReason::Loss => "loss",
            DropReason::LinkDown => "link-down",
            DropReason::Shed => "shed",
        }
    }
}

/// One recorded event: 32 bytes, fixed layout, little-endian on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time in nanoseconds.
    pub t: u64,
    /// Component id (see [`component`]).
    pub comp: u32,
    /// What happened.
    pub kind: TraceKind,
    /// Kind-specific small operand (drop reason, class index, severity).
    pub aux: u8,
    /// First 64-bit operand (usually a packet/message id).
    pub a: u64,
    /// Second 64-bit operand (packed flow/size, delay, bytes, ...).
    pub b: u64,
}

/// Packs a packet's flow and size into one operand.
fn pack_flow_size(flow: u64, size: u32) -> u64 {
    (flow << 32) | u64::from(size)
}

impl TraceEvent {
    /// Encoded size of one record in bytes.
    pub const ENCODED_LEN: usize = 32;

    /// A packet-enqueue event on a link.
    pub fn packet_enqueue(t: u64, comp: u32, id: u64, flow: u64, size: u32, prio: u8) -> Self {
        TraceEvent {
            t,
            comp,
            kind: TraceKind::PacketEnqueue,
            aux: prio,
            a: id,
            b: pack_flow_size(flow, size),
        }
    }

    /// A packet-drop event.
    pub fn packet_drop(
        t: u64,
        comp: u32,
        reason: DropReason,
        id: u64,
        flow: u64,
        size: u32,
    ) -> Self {
        TraceEvent {
            t,
            comp,
            kind: TraceKind::PacketDrop,
            aux: reason as u8,
            a: id,
            b: pack_flow_size(flow, size),
        }
    }

    /// A packet-dequeue event carrying the queueing delay in nanoseconds.
    pub fn packet_dequeue(t: u64, comp: u32, id: u64, delay_nanos: u64) -> Self {
        TraceEvent { t, comp, kind: TraceKind::PacketDequeue, aux: 0, a: id, b: delay_nanos }
    }

    /// A packet-delivery event at the far end of a link.
    pub fn packet_deliver(t: u64, comp: u32, id: u64, flow: u64, size: u32) -> Self {
        TraceEvent {
            t,
            comp,
            kind: TraceKind::PacketDeliver,
            aux: 0,
            a: id,
            b: pack_flow_size(flow, size),
        }
    }

    /// A link busy/idle transition with the remaining queue occupancy.
    pub fn link_state(t: u64, comp: u32, busy: bool, q_packets: u64, q_bytes: u64) -> Self {
        TraceEvent {
            t,
            comp,
            kind: if busy { TraceKind::LinkBusy } else { TraceKind::LinkIdle },
            aux: 0,
            a: q_packets,
            b: q_bytes,
        }
    }

    /// A class-admit event at a protocol endpoint.
    pub fn class_admit(t: u64, comp: u32, class: u8, msg_id: u64, bytes: u64) -> Self {
        TraceEvent { t, comp, kind: TraceKind::ClassAdmit, aux: class, a: msg_id, b: bytes }
    }

    /// A degradation-shed event at a protocol endpoint.
    pub fn class_degrade(t: u64, comp: u32, severity: u8, shed_msgs: u64, shed_bytes: u64) -> Self {
        TraceEvent {
            t,
            comp,
            kind: TraceKind::ClassDegrade,
            aux: severity,
            a: shed_msgs,
            b: shed_bytes,
        }
    }

    /// A FEC-repair event.
    pub fn fec_repair(t: u64, comp: u32, msg_id: u64, fragment: u64) -> Self {
        TraceEvent { t, comp, kind: TraceKind::FecRepair, aux: 0, a: msg_id, b: fragment }
    }

    /// A path-switch event.
    pub fn path_switch(t: u64, comp: u32, class: u8, old_path: u64, new_path: u64) -> Self {
        TraceEvent { t, comp, kind: TraceKind::PathSwitch, aux: class, a: old_path, b: new_path }
    }

    /// An offload-dispatch event: a client handed `bytes` of work for
    /// message `job` (stream class `class`) to the transport for remote
    /// execution.
    pub fn offload_dispatch(t: u64, comp: u32, class: u8, job: u64, bytes: u64) -> Self {
        TraceEvent { t, comp, kind: TraceKind::OffloadDispatch, aux: class, a: job, b: bytes }
    }

    /// A fault-injection event: fault kind `fault` hit component `target`
    /// with a kind-specific parameter (loss permille, delay nanos, ...).
    pub fn fault_inject(t: u64, comp: u32, fault: u8, target: u64, param: u64) -> Self {
        TraceEvent { t, comp, kind: TraceKind::FaultInject, aux: fault, a: target, b: param }
    }

    /// A fault-clear event: fault kind `fault` on component `target`
    /// cleared after `duration_nanos`.
    pub fn fault_clear(t: u64, comp: u32, fault: u8, target: u64, duration_nanos: u64) -> Self {
        TraceEvent {
            t,
            comp,
            kind: TraceKind::FaultClear,
            aux: fault,
            a: target,
            b: duration_nanos,
        }
    }

    /// An outage-detection event at an endpoint watchdog.
    pub fn outage_detect(t: u64, comp: u32, silence_nanos: u64, paths_up: u64) -> Self {
        TraceEvent { t, comp, kind: TraceKind::OutageDetect, aux: 0, a: silence_nanos, b: paths_up }
    }

    /// An outage-resolution event at an endpoint watchdog.
    pub fn outage_resolve(t: u64, comp: u32, outage_nanos: u64, probes: u64) -> Self {
        TraceEvent { t, comp, kind: TraceKind::OutageResolve, aux: 0, a: outage_nanos, b: probes }
    }

    /// An edge-server crash event.
    pub fn edge_crash(t: u64, comp: u32, epoch: u64, state_lost: bool) -> Self {
        TraceEvent {
            t,
            comp,
            kind: TraceKind::EdgeCrash,
            aux: 0,
            a: epoch,
            b: u64::from(state_lost),
        }
    }

    /// An edge-server restart event.
    pub fn edge_restart(t: u64, comp: u32, epoch: u64, downtime_nanos: u64) -> Self {
        TraceEvent { t, comp, kind: TraceKind::EdgeRestart, aux: 0, a: epoch, b: downtime_nanos }
    }

    /// A session re-establishment event at a sender.
    pub fn session_resync(t: u64, comp: u32, old_epoch: u64, new_epoch: u64) -> Self {
        TraceEvent { t, comp, kind: TraceKind::SessionResync, aux: 0, a: old_epoch, b: new_epoch }
    }

    /// A recovery-probe event during an outage.
    pub fn recovery_probe(t: u64, comp: u32, attempt: u64, backoff_nanos: u64) -> Self {
        TraceEvent { t, comp, kind: TraceKind::RecoveryProbe, aux: 0, a: attempt, b: backoff_nanos }
    }

    /// A flow-start event in the fluid tier.
    pub fn flow_start(t: u64, comp: u32, class: u8, flow: u64, bytes: u64) -> Self {
        TraceEvent { t, comp, kind: TraceKind::FlowStart, aux: class, a: flow, b: bytes }
    }

    /// A flow-finish event in the fluid tier.
    pub fn flow_finish(t: u64, comp: u32, class: u8, flow: u64, duration_nanos: u64) -> Self {
        TraceEvent { t, comp, kind: TraceKind::FlowFinish, aux: class, a: flow, b: duration_nanos }
    }

    /// A flow-class rate-change event after a max-min recompute.
    pub fn flow_rate(t: u64, comp: u32, class: u8, active: u64, rate_bps: u64) -> Self {
        TraceEvent { t, comp, kind: TraceKind::FlowRate, aux: class, a: active, b: rate_bps }
    }

    /// Folds the [`TraceKind::PacketDequeue`] (delay 0) and
    /// [`TraceKind::LinkBusy`] (0 packets / 0 bytes) records that would
    /// follow this one into it, when this record is the
    /// [`TraceKind::PacketEnqueue`] of packet `id` on `comp` at `t`: it
    /// becomes the [`TraceKind::PacketSendIdle`] that [`expand`] turns back
    /// into all three. Returns `false`, leaving the record as it is,
    /// otherwise.
    pub fn fold_send_idle(&mut self, t: u64, comp: u32, id: u64) -> bool {
        let fold = self.kind == TraceKind::PacketEnqueue
            && self.t == t
            && self.comp == comp
            && self.a == id;
        if fold {
            self.kind = TraceKind::PacketSendIdle;
        }
        fold
    }

    /// The packet flow id, for kinds whose `b` packs flow and size.
    pub fn flow(&self) -> u64 {
        self.b >> 32
    }

    /// The packet wire size, for kinds whose `b` packs flow and size.
    pub fn size(&self) -> u32 {
        self.b as u32
    }

    /// Encodes the record into its fixed 32-byte little-endian form.
    pub fn encode(&self) -> [u8; TraceEvent::ENCODED_LEN] {
        let mut out = [0u8; TraceEvent::ENCODED_LEN];
        out[0..8].copy_from_slice(&self.t.to_le_bytes());
        out[8..12].copy_from_slice(&self.comp.to_le_bytes());
        out[12] = self.kind as u8;
        out[13] = self.aux;
        // out[14..16] reserved, zero.
        out[16..24].copy_from_slice(&self.a.to_le_bytes());
        out[24..32].copy_from_slice(&self.b.to_le_bytes());
        out
    }

    /// Decodes a record, or `None` for a short buffer / unknown kind.
    pub fn decode(bytes: &[u8]) -> Option<TraceEvent> {
        if bytes.len() < TraceEvent::ENCODED_LEN {
            return None;
        }
        let kind = TraceKind::from_u8(bytes[12])?;
        Some(TraceEvent {
            t: u64::from_le_bytes(bytes[0..8].try_into().ok()?),
            comp: u32::from_le_bytes(bytes[8..12].try_into().ok()?),
            kind,
            aux: bytes[13],
            a: u64::from_le_bytes(bytes[16..24].try_into().ok()?),
            b: u64::from_le_bytes(bytes[24..32].try_into().ok()?),
        })
    }
}

/// The trace as readers see it: every [`TraceKind::PacketSendIdle`] record
/// replaced by the enqueue, dequeue (delay 0) and busy (0 queued) records
/// it stands for, in that order, and every other record unchanged. On a
/// recorded trace this is exactly what a recorder that never folds would
/// have written.
pub fn expand(events: &[TraceEvent]) -> Vec<TraceEvent> {
    let folded = events.iter().filter(|e| e.kind == TraceKind::PacketSendIdle).count();
    let mut out = Vec::with_capacity(events.len() + 2 * folded);
    for &ev in events {
        if ev.kind == TraceKind::PacketSendIdle {
            out.push(TraceEvent { kind: TraceKind::PacketEnqueue, ..ev });
            out.push(TraceEvent::packet_dequeue(ev.t, ev.comp, ev.a, 0));
            out.push(TraceEvent::link_state(ev.t, ev.comp, true, 0, 0));
        } else {
            out.push(ev);
        }
    }
    out
}

impl fmt::Display for TraceEvent {
    /// One human-readable line, used by `marnet-trace dump`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t_ms = self.t as f64 / 1e6;
        let comp = component::label(self.comp);
        match self.kind {
            TraceKind::PacketEnqueue => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} enqueue      pkt {} flow {} size {} prio {}",
                self.a,
                self.flow(),
                self.size(),
                self.aux
            ),
            TraceKind::PacketDrop => {
                let reason = DropReason::from_u8(self.aux).map_or("?", DropReason::name);
                write!(
                    f,
                    "{t_ms:>12.6} ms  {comp:<10} drop         pkt {} flow {} size {} ({reason})",
                    self.a,
                    self.flow(),
                    self.size()
                )
            }
            TraceKind::PacketSendIdle => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} send-idle    pkt {} flow {} size {} prio {}",
                self.a,
                self.flow(),
                self.size(),
                self.aux
            ),
            TraceKind::PacketDequeue => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} dequeue      pkt {} qdelay {:.6} ms",
                self.a,
                self.b as f64 / 1e6
            ),
            TraceKind::PacketDeliver => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} deliver      pkt {} flow {} size {}",
                self.a,
                self.flow(),
                self.size()
            ),
            TraceKind::LinkBusy | TraceKind::LinkIdle => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} {:<12} queued {} pkts / {} bytes",
                self.kind.name(),
                self.a,
                self.b
            ),
            TraceKind::ClassAdmit => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} admit        class {} msg {} bytes {}",
                self.aux, self.a, self.b
            ),
            TraceKind::ClassDegrade => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} degrade      severity {} shed {} msgs / {} bytes",
                self.aux, self.a, self.b
            ),
            TraceKind::FecRepair => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} fec-repair   msg {} fragment {}",
                self.a, self.b
            ),
            TraceKind::PathSwitch => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} path-switch  class {} path {} -> {}",
                self.aux, self.a, self.b
            ),
            TraceKind::OffloadDispatch => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} offload      class {} job {} bytes {}",
                self.aux, self.a, self.b
            ),
            TraceKind::FaultInject => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} fault-inject kind {} target {} param {}",
                self.aux, self.a, self.b
            ),
            TraceKind::FaultClear => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} fault-clear  kind {} target {} after {:.6} ms",
                self.aux,
                self.a,
                self.b as f64 / 1e6
            ),
            TraceKind::OutageDetect => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} outage-detect silence {:.6} ms paths-up {}",
                self.a as f64 / 1e6,
                self.b
            ),
            TraceKind::OutageResolve => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} outage-resolve after {:.6} ms probes {}",
                self.a as f64 / 1e6,
                self.b
            ),
            TraceKind::EdgeCrash => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} edge-crash   epoch {} state-lost {}",
                self.a, self.b
            ),
            TraceKind::EdgeRestart => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} edge-restart epoch {} down {:.6} ms",
                self.a,
                self.b as f64 / 1e6
            ),
            TraceKind::SessionResync => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} session-resync epoch {} -> {}",
                self.a, self.b
            ),
            TraceKind::RecoveryProbe => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} recovery-probe attempt {} backoff {:.6} ms",
                self.a,
                self.b as f64 / 1e6
            ),
            TraceKind::FlowStart => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} flow-start   class {} flow {} bytes {}",
                self.aux, self.a, self.b
            ),
            TraceKind::FlowFinish => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} flow-finish  class {} flow {} after {:.6} ms",
                self.aux,
                self.a,
                self.b as f64 / 1e6
            ),
            TraceKind::FlowRate => write!(
                f,
                "{t_ms:>12.6} ms  {comp:<10} flow-rate    class {} active {} rate {:.3} Mbps",
                self.aux,
                self.a,
                self.b as f64 / 1e6
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_encoding_round_trips() {
        let l = component::link(5);
        let a = component::actor(5);
        assert_ne!(l, a);
        assert!(component::is_link(l));
        assert!(!component::is_link(a));
        assert_eq!(component::index(l), 5);
        assert_eq!(component::index(a), 5);
        assert_eq!(component::label(l), "link#5");
        assert_eq!(component::label(a), "actor#5");
    }

    #[test]
    fn encode_decode_round_trips_every_kind() {
        for (i, kind) in TraceKind::ALL.into_iter().enumerate() {
            let ev = TraceEvent {
                t: 123_456_789 + i as u64,
                comp: component::link(i),
                kind,
                aux: i as u8,
                a: 0xdead_beef + i as u64,
                b: u64::MAX - i as u64,
            };
            let bytes = ev.encode();
            assert_eq!(bytes.len(), TraceEvent::ENCODED_LEN);
            assert_eq!(TraceEvent::decode(&bytes), Some(ev));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(TraceEvent::decode(&[0u8; 4]), None);
        let mut bytes = [0u8; 32];
        bytes[12] = 250; // unknown kind
        assert_eq!(TraceEvent::decode(&bytes), None);
    }

    #[test]
    fn flow_size_packing() {
        let ev = TraceEvent::packet_enqueue(1, component::link(0), 9, 77, 1500, 2);
        assert_eq!(ev.flow(), 77);
        assert_eq!(ev.size(), 1500);
        assert_eq!(ev.aux, 2);
    }

    #[test]
    fn expand_is_the_identity_on_every_other_kind() {
        let events: Vec<TraceEvent> = TraceKind::ALL
            .into_iter()
            .filter(|&k| k != TraceKind::PacketSendIdle)
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                t: i as u64,
                comp: component::link(i),
                kind,
                aux: i as u8,
                a: i as u64 + 1,
                b: u64::MAX - i as u64,
            })
            .collect();
        assert_eq!(expand(&events), events);
        assert!(expand(&[]).is_empty());
    }

    #[test]
    fn expand_restores_enqueue_dequeue_busy_in_order() {
        let link = component::link(3);
        let before = TraceEvent::packet_deliver(5, component::actor(1), 8, 2, 64);
        let enqueue = TraceEvent::packet_enqueue(9, link, 42, 7, 1_200, 2);
        let after = TraceEvent::link_state(20, link, false, 0, 0);
        let mut send_idle = enqueue;
        assert!(send_idle.fold_send_idle(9, link, 42));
        assert_eq!(send_idle.kind, TraceKind::PacketSendIdle);
        assert_eq!((send_idle.a, send_idle.b, send_idle.aux), (enqueue.a, enqueue.b, enqueue.aux));
        assert_eq!(
            expand(&[before, send_idle, after]),
            vec![
                before,
                enqueue,
                TraceEvent::packet_dequeue(9, link, 42, 0),
                TraceEvent::link_state(9, link, true, 0, 0),
                after,
            ]
        );
    }

    #[test]
    fn fold_send_idle_only_folds_the_matching_enqueue() {
        let link = component::link(0);
        let enqueue = TraceEvent::packet_enqueue(9, link, 42, 7, 1_200, 2);
        for (t, comp, id) in [(8, link, 42), (9, component::link(1), 42), (9, link, 43)] {
            let mut ev = enqueue;
            assert!(!ev.fold_send_idle(t, comp, id), "({t}, {comp}, {id})");
            assert_eq!(ev, enqueue, "a refused fold leaves the record as it is");
        }
        let mut drop = TraceEvent::packet_drop(9, link, DropReason::Aqm, 42, 7, 1_200);
        assert!(!drop.fold_send_idle(9, link, 42), "only an enqueue folds");
        assert_eq!(drop.kind, TraceKind::PacketDrop);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in TraceKind::ALL {
            assert_eq!(TraceKind::from_name(kind.name()), Some(kind));
            assert_eq!(TraceKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(TraceKind::from_name("nope"), None);
    }
}
