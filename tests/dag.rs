//! Tests over [`shmt::VopDag`]: node labels and the implied topological
//! order must never change computed values, fully-overlapping Edge-TPU
//! placements must make interior edges entirely device-resident (zero
//! staged input elements), the reference pipelines in [`pipelines`]
//! must compose within the charges of their own stages, and re-timing a
//! stage must charge exactly what the stage's own run charged, less its
//! residency discounts. Stages move an input on its last read and clone
//! it for earlier readers; the [`move_rule_dags`] hold them to
//! hand-chained references bit for bit, and [`DAG_GOLDEN`] pins the
//! output, makespan and energy bits of every reference pipeline and of
//! the serving benchmark's DAG.
//!
//! Random cases are drawn from a seeded [`Pcg32`] stream, so every run
//! explores the same graphs and failures reproduce exactly.

use shmt::baseline::{exact_reference, gpu_baseline};
use shmt::dag::{DagConfig, DagNode, VopDag};
use shmt::sampling::SamplingMethod;
use shmt::{NodeOp, Platform, Policy, QawsAssignment, RuntimeConfig, ShmtRuntime, Tensor, Vop};
use shmt_kernels::primitives::{BinaryOp, UnaryOp};
use shmt_kernels::Benchmark;
use shmt_tensor::gen;
use shmt_tensor::rng::Pcg32;

fn config(policy: Policy) -> DagConfig {
    let mut rt = RuntimeConfig::new(policy);
    rt.partitions = 8;
    DagConfig::new(rt)
}

fn cfg() -> DagConfig {
    config(Policy::WorkStealing)
}

/// A named DAG with the configuration and input it runs under.
struct Pipeline {
    name: &'static str,
    dag: VopDag,
    config: DagConfig,
    input: Tensor,
}

/// The reference pipelines a change to DAG composition is checked on:
///
/// * `vision` — Sobel → Histogram, a linear benchmark chain ending in a
///   reduction, under work stealing;
/// * `dwt` — DWT → ReLU → Sqrt under QAWS-TS, whose unary tail fuses
///   into one stage;
/// * `chain` — ReLU → Sqrt → Tanh with fusion off: three identical
///   element-wise stages whose Edge-TPU tiles coincide.
fn pipelines() -> Vec<Pipeline> {
    let mut unfused = cfg();
    unfused.fuse_elementwise = false;
    vec![
        Pipeline {
            name: "vision",
            dag: VopDag::linear(&[(Benchmark::Sobel, 1), (Benchmark::Histogram, 2)])
                .expect("valid chain"),
            config: cfg(),
            input: gen::image8(96, 96, 7),
        },
        Pipeline {
            name: "dwt",
            dag: VopDag::new(vec![
                DagNode::benchmark(Benchmark::Dwt, 3, vec![]),
                DagNode::unary(UnaryOp::Relu, 0),
                DagNode::unary(UnaryOp::Sqrt, 1),
            ])
            .expect("valid chain"),
            config: config(Policy::Qaws {
                assignment: QawsAssignment::TopK,
                sampling: SamplingMethod::Striding,
            }),
            input: gen::image8(96, 96, 9),
        },
        Pipeline {
            name: "chain",
            dag: VopDag::new(vec![
                root(UnaryOp::Relu),
                DagNode::unary(UnaryOp::Sqrt, 0),
                DagNode::unary(UnaryOp::Tanh, 1),
            ])
            .expect("valid chain"),
            config: unfused,
            input: gen::image8(128, 128, 3),
        },
    ]
}

fn pipeline(name: &str) -> Pipeline {
    pipelines()
        .into_iter()
        .find(|p| p.name == name)
        .expect("a named reference pipeline")
}

/// Edge-TPU elements a stage's own run placed.
fn tpu_elements(stage: &shmt::DagStageReport) -> usize {
    stage
        .report
        .device_elements()
        .iter()
        .filter(|(kind, _)| matches!(kind, hetsim::DeviceKind::EdgeTpu))
        .map(|&(_, e)| e as usize)
        .sum()
}

/// Builds a random single-sink DAG: a benchmark root, a layer of unary
/// nodes over random earlier producers, and binary joins folding every
/// dangling output down to one sink.
fn random_dag(rng: &mut Pcg32) -> VopDag {
    const UNARY: [UnaryOp; 3] = [UnaryOp::Relu, UnaryOp::Sqrt, UnaryOp::Tanh];
    const BINARY: [BinaryOp; 3] = [BinaryOp::Add, BinaryOp::Max, BinaryOp::Min];
    const ROOTS: [Benchmark; 3] = [Benchmark::MeanFilter, Benchmark::Sobel, Benchmark::Dwt];

    let root = ROOTS[rng.gen_range(0usize..ROOTS.len())];
    let mut nodes = vec![DagNode::benchmark(root, rng.gen_range(0u64..100), vec![])];
    for _ in 0..rng.gen_range(2usize..7) {
        let op = UNARY[rng.gen_range(0usize..UNARY.len())];
        let dep = rng.gen_range(0usize..nodes.len());
        nodes.push(DagNode::unary(op, dep));
    }
    // Fold all current sinks pairwise until exactly one remains.
    loop {
        let mut consumed = vec![false; nodes.len()];
        for n in &nodes {
            for &d in &n.deps {
                consumed[d] = true;
            }
        }
        let sinks: Vec<usize> = (0..nodes.len()).filter(|&i| !consumed[i]).collect();
        if sinks.len() < 2 {
            break;
        }
        let op = BINARY[rng.gen_range(0usize..BINARY.len())];
        nodes.push(DagNode::binary(op, sinks[0], sinks[1]));
    }
    VopDag::new(nodes).expect("generated DAG validates")
}

/// Relabels a DAG's nodes through a random permutation (dependencies
/// remapped, slot order preserved). Acyclicity is label-independent, so
/// the permuted graph still validates — but its internal topological
/// order, and hence stage execution order, generally differs.
fn relabel(dag: &VopDag, rng: &mut Pcg32) -> VopDag {
    let n = dag.len();
    // Fisher–Yates: perm[old] = new.
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0usize..i + 1);
        perm.swap(i, j);
    }
    let mut nodes: Vec<Option<DagNode>> = vec![None; n];
    for (old, node) in dag.nodes().iter().enumerate() {
        let mut moved = node.clone();
        moved.deps = node.deps.iter().map(|&d| perm[d]).collect();
        nodes[perm[old]] = Some(moved);
    }
    let nodes: Vec<DagNode> = nodes.into_iter().map(|n| n.expect("bijection")).collect();
    VopDag::new(nodes).expect("relabeled DAG validates")
}

/// Any relabeling of a DAG — and therefore any admissible topological
/// execution order — produces bit-identical outputs: values are decided
/// per stage by the ordinary runtime, never by graph traversal order.
#[test]
fn relabeled_dags_are_bit_identical() {
    let mut rng = Pcg32::seed_from_u64(0xDA61);
    for case in 0..6 {
        let dag = random_dag(&mut rng);
        let input = gen::image8(48, 48, 7 + case);
        let reference = dag.run(&input, &cfg()).expect("reference run");
        for _ in 0..2 {
            let shuffled = relabel(&dag, &mut rng);
            let got = shuffled.run(&input, &cfg()).expect("relabeled run");
            assert_eq!(
                got.output.as_slice(),
                reference.output.as_slice(),
                "case {case}: relabeling changed computed values"
            );
            assert_eq!(got.stages.len(), reference.stages.len(), "case {case}");
            assert_eq!(got.fused, reference.fused, "case {case}");
        }
    }
}

/// Fusion is an execution-plan change with one sanctioned numeric
/// effect: the fused kernel quantizes *once* around the whole chain on
/// the int8 Edge-TPU path (as a real fused device kernel does) instead
/// of once per stage. So a run that fused nothing must be bit-identical
/// to the unfused plan, and a run that did fuse must stay within a
/// couple of int8 grid steps of it.
#[test]
fn fusion_stays_within_quantization_tolerance() {
    let mut rng = Pcg32::seed_from_u64(0xDA62);
    for case in 0..4 {
        let dag = random_dag(&mut rng);
        let input = gen::image8(48, 48, 11 + case);
        let fused = dag.run(&input, &cfg()).expect("fused run");
        let mut unfused_cfg = cfg();
        unfused_cfg.fuse_elementwise = false;
        let unfused = dag.run(&input, &unfused_cfg).expect("unfused run");
        if fused.fused == 0 {
            assert_eq!(
                fused.output.as_slice(),
                unfused.output.as_slice(),
                "case {case}: nothing fused, yet values changed"
            );
        } else {
            let err = shmt::quality::mape(&unfused.output, &fused.output);
            assert!(
                err < 0.02,
                "case {case}: fused chain drifted {err} MAPE from the unfused plan"
            );
        }
        assert!(fused.stages.len() <= unfused.stages.len(), "case {case}");
    }
}

/// An interior edge between two identically-shaped element-wise stages
/// is fully resident: the consumer's Edge-TPU tiles coincide with the
/// producer's, so no input element is staged over the interconnect, and
/// the composition moves fewer bytes than the same stages run on their
/// own.
#[test]
fn identical_stage_chain_is_fully_resident() {
    let Pipeline {
        dag, config, input, ..
    } = pipeline("chain");
    let d = dag.run(&input, &config).expect("chain runs");
    assert_eq!(d.stages.len(), 3);
    for (i, stage) in d.stages.iter().enumerate().skip(1) {
        assert_eq!(
            stage.staged_in_elements, 0,
            "stage {i}: identical placements must leave the whole edge resident"
        );
        assert_eq!(
            stage.resident_in_elements,
            tpu_elements(stage),
            "stage {i}: residency must cover every Edge-TPU element"
        );
    }
    let staged_alone: u64 = d.stages.iter().map(|s| s.report.bus_bytes).sum();
    assert!(d.resident_bus_bytes < staged_alone);
}

/// An edge that touches a guarded stage is never resident: the guarded
/// stage keeps its pass-1 timing (input staged, output restored for the
/// guard), so neither it nor its unguarded neighbours are discounted. In
/// ReLU → Sqrt (guarded) → Tanh → ReLU only the last edge stays resident.
#[test]
fn edges_touching_a_guarded_stage_are_never_resident() {
    let Pipeline { config, input, .. } = pipeline("chain");
    let dag = VopDag::new(vec![
        root(UnaryOp::Relu),
        DagNode::unary(UnaryOp::Sqrt, 0).with_quality_budget(0.5),
        DagNode::unary(UnaryOp::Tanh, 1),
        DagNode::unary(UnaryOp::Relu, 2),
    ])
    .expect("valid chain");
    let d = dag.run(&input, &config).expect("chain runs");
    assert_eq!(d.stages.len(), 4);
    assert_eq!(d.resident_edges, 1, "only Tanh -> ReLU is eligible");
    let resident: Vec<(usize, usize)> = d
        .stages
        .iter()
        .map(|s| (s.resident_in_elements, s.resident_out_elements))
        .collect();
    assert_eq!(resident[..2], [(0, 0), (0, 0)]);
    assert_eq!(resident[2].0, 0, "Sqrt -> Tanh touches the guarded stage");
    assert!(resident[2].1 > 0, "Tanh -> ReLU stays resident");
    assert_eq!(resident[3], (tpu_elements(&d.stages[3]), 0));
    assert!(
        tpu_elements(&d.stages[0]) > 0,
        "the root must reach the TPU"
    );
    assert_eq!(d.stages[0].staged_out_elements, tpu_elements(&d.stages[0]));
    assert_eq!(d.stages[2].staged_in_elements, tpu_elements(&d.stages[2]));
}

/// Every reference pipeline composes within its own stages: each stage's
/// Edge-TPU elements are either resident or staged, never both or
/// neither; stage windows run back to back and end at the makespan; and
/// residency only ever removes transfers, so the composition moves no
/// more bytes than the stages run on their own.
#[test]
fn reference_pipelines_compose_within_their_stages() {
    for Pipeline {
        name,
        dag,
        config,
        input,
    } in pipelines()
    {
        let d = dag.run(&input, &config).expect("pipeline runs");
        let mut prev_finish = 0.0;
        for (i, stage) in d.stages.iter().enumerate() {
            let tpu = tpu_elements(stage);
            assert_eq!(
                stage.staged_in_elements + stage.resident_in_elements,
                tpu,
                "{name} stage {i}: input accounting"
            );
            assert_eq!(
                stage.staged_out_elements + stage.resident_out_elements,
                tpu,
                "{name} stage {i}: output accounting"
            );
            assert!(stage.start_s >= prev_finish, "{name} stage {i} overlaps");
            assert!(stage.finish_s > stage.start_s, "{name} stage {i} is empty");
            prev_finish = stage.finish_s;
        }
        assert_eq!(d.makespan_s, prev_finish, "{name}");
        let staged_alone: u64 = d.stages.iter().map(|s| s.report.bus_bytes).sum();
        assert!(d.resident_bus_bytes <= staged_alone, "{name}: bus bytes");
        let fused = usize::from(name == "dwt");
        assert_eq!(d.fused, fused, "{name}: only the DWT tail fuses");
    }
}

/// The DAGs the one-model checks run over: every reference pipeline, and
/// the random DAGs `relabeled_dags_are_bit_identical` draws, relabelings
/// included.
fn retiming_cases() -> Vec<(String, shmt::DagReport)> {
    let mut cases: Vec<(String, shmt::DagReport)> = pipelines()
        .into_iter()
        .map(|p| {
            let d = p.dag.run(&p.input, &p.config).expect("pipeline runs");
            (p.name.to_owned(), d)
        })
        .collect();
    let mut rng = Pcg32::seed_from_u64(0xDA61);
    for case in 0..6 {
        let dag = random_dag(&mut rng);
        let input = gen::image8(48, 48, 7 + case);
        let d = dag.run(&input, &cfg()).expect("random DAG runs");
        cases.push((format!("random case {case}"), d));
        for i in 0..2 {
            let shuffled = relabel(&dag, &mut rng);
            let d = shuffled.run(&input, &cfg()).expect("relabeled DAG runs");
            cases.push((format!("random case {case}, relabeling {i}"), d));
        }
    }
    cases
}

/// One virtual-time model: a stage re-times through the runtime's own
/// HLOP charging loop, so an unguarded stage with nothing resident lasts
/// exactly as long as its own run, and residency only ever removes
/// charges — no stage's window is longer than its own run, and the DAG
/// ends no later than its stages run back to back.
#[test]
fn stages_retime_within_their_own_runs() {
    let mut unresident = 0;
    for (name, d) in retiming_cases() {
        for (i, stage) in d.stages.iter().enumerate() {
            let own_s = stage.report.makespan_s;
            if !stage.report.quality.enabled
                && stage.resident_in_elements == 0
                && stage.resident_out_elements == 0
            {
                unresident += 1;
                assert_eq!(
                    stage.start_s + own_s,
                    stage.finish_s,
                    "{name} stage {i}: nothing resident, yet the re-timed window \
                     {} differs from the stage's own {own_s}",
                    stage.finish_s - stage.start_s
                );
            }
            assert!(
                stage.finish_s <= stage.start_s + own_s,
                "{name} stage {i}: re-timed window {} exceeds the stage's own {own_s}",
                stage.finish_s - stage.start_s
            );
        }
        assert!(
            d.makespan_s <= d.total_latency_s,
            "{name}: DAG makespan {} exceeds its stages back to back {}",
            d.makespan_s,
            d.total_latency_s
        );
    }
    assert!(unresident > 0, "some stage must have nothing resident");
}

/// What flows between DAG stages, clamped as `shmt::dag` clamps it.
fn sanitize(mut t: Tensor) -> Tensor {
    t.map_inplace(|v| {
        if v.is_finite() {
            v.clamp(-1.0e6, 1.0e6)
        } else {
            0.0
        }
    });
    t
}

/// The hand-chained reference of an unfused DAG whose node ids are a
/// topological order: each node is one `ShmtRuntime::execute` under
/// `config` — or, with `None`, one GPU baseline over 8 partitions, the
/// conventional walk — over clones of its producers' sanitized outputs
/// (the external input for a root). Returns the sink's output and the
/// summed stage makespans.
fn hand_chained(dag: &VopDag, input: &Tensor, config: Option<RuntimeConfig>) -> (Tensor, f64) {
    let mut outs: Vec<Tensor> = Vec::new();
    let mut total_s = 0.0;
    for node in dag.nodes() {
        let mut inputs: Vec<Tensor> = node.deps.iter().map(|&d| outs[d].clone()).collect();
        if inputs.is_empty() {
            inputs.push(input.clone());
        }
        let (vop, platform) = match node.op {
            NodeOp::Benchmark { benchmark, .. } => (
                Vop::from_benchmark(benchmark, inputs).expect("valid VOP"),
                Platform::jetson(benchmark),
            ),
            NodeOp::Unary(op) => (
                Vop::unary(op, inputs.remove(0)).expect("valid VOP"),
                Platform::generic(),
            ),
            NodeOp::Binary(op) => {
                let b = inputs.pop().expect("second input");
                let a = inputs.pop().expect("first input");
                (
                    Vop::binary(op, a, b).expect("valid VOP"),
                    Platform::generic(),
                )
            }
        };
        let (makespan_s, output) = match config {
            Some(c) => {
                let r = ShmtRuntime::new(platform, c)
                    .execute(&vop)
                    .expect("VOP runs");
                (r.makespan_s, r.output)
            }
            None => {
                let r = gpu_baseline(&platform, &vop, 8).expect("GPU baseline");
                (r.makespan_s, exact_reference(&vop))
            }
        };
        total_s += makespan_s;
        outs.push(sanitize(output));
    }
    (outs.pop().expect("a sink"), total_s)
}

/// A unary root node: it reads the DAG's external input.
fn root(op: UnaryOp) -> DagNode {
    DagNode {
        op: NodeOp::Unary(op),
        deps: vec![],
        max_mape: None,
    }
}

/// The DAGs whose stages move an input on its last read only:
///
/// * `add twice` — one stage reads an output in both slots (the first
///   clones it, the second moves it);
/// * `diamond` — two later stages read one output (the first clones, the
///   last moves);
/// * `two roots` — two root stages share the external input.
fn move_rule_dags() -> Vec<(&'static str, VopDag)> {
    let mf = || DagNode::benchmark(Benchmark::MeanFilter, 3, vec![]);
    let dag = |nodes| VopDag::new(nodes).expect("valid DAG");
    vec![
        (
            "add twice",
            dag(vec![mf(), DagNode::binary(BinaryOp::Add, 0, 0)]),
        ),
        (
            "diamond",
            dag(vec![
                mf(),
                DagNode::unary(UnaryOp::Relu, 0),
                DagNode::unary(UnaryOp::Tanh, 0),
                DagNode::binary(BinaryOp::Max, 1, 2),
            ]),
        ),
        (
            "two roots",
            dag(vec![
                root(UnaryOp::Relu),
                root(UnaryOp::Sqrt),
                DagNode::binary(BinaryOp::Sub, 0, 1),
            ]),
        ),
    ]
}

fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    assert!(bits(got) == bits(want), "{what}: output bits differ");
}

/// A stage reading one output in both of its slots computes what the
/// hand-chained `execute` + `sanitize` reference computes, bit for bit.
#[test]
fn stage_reading_one_output_twice_matches_hand_chain() {
    let (name, dag) = move_rule_dags().remove(0);
    let input = gen::image8(64, 64, 5);
    let got = dag.run(&input, &cfg()).expect("DAG runs");
    let (want, _) = hand_chained(&dag, &input, Some(cfg().runtime));
    assert_same_bits(&got.output, &want, name);
}

/// A diamond's two readers of one output, and two roots sharing the
/// external input, compute the hand-chained reference bit for bit.
#[test]
fn shared_outputs_and_inputs_match_hand_chain() {
    for (name, dag) in move_rule_dags().into_iter().skip(1) {
        let input = gen::image8(64, 64, 6);
        let got = dag.run(&input, &cfg()).expect("DAG runs");
        let (want, _) = hand_chained(&dag, &input, Some(cfg().runtime));
        assert_same_bits(&got.output, &want, name);
    }
}

/// The conventional walk builds its stages through the same move rule:
/// on every move-rule DAG its output and summed makespan are the
/// hand-chained GPU baselines'.
#[test]
fn conventional_walk_matches_hand_chained_baselines() {
    for (name, dag) in move_rule_dags() {
        let input = gen::image8(64, 64, 7);
        let (got_s, got) = dag.run_conventional(&input, 8).expect("conventional walk");
        let (want, want_s) = hand_chained(&dag, &input, None);
        assert_same_bits(&got, &want, name);
        assert_eq!(got_s, want_s, "{name}: summed makespan");
    }
}

/// The guarded DAG the serving benchmark submits — Sobel → ReLU → Sqrt →
/// MeanFilter, work stealing over 64 partitions on two compute threads —
/// at 256², with the per-stage guard on or off.
fn serve_guard_dag(guarded: bool) -> (VopDag, DagConfig, Tensor) {
    let dag = VopDag::new(vec![
        DagNode::benchmark(Benchmark::Sobel, 0, vec![]),
        DagNode::unary(UnaryOp::Relu, 0),
        DagNode::unary(UnaryOp::Sqrt, 1),
        DagNode::benchmark(Benchmark::MeanFilter, 0, vec![2]),
    ])
    .expect("valid DAG");
    let mut rt = RuntimeConfig::new(Policy::WorkStealing);
    rt.partitions = 64;
    rt.compute_threads = 2;
    if guarded {
        rt.guard = shmt::GuardConfig::enforcing(0.05);
    }
    let input = Benchmark::Sobel.generate_inputs(256, 256, 1).remove(0);
    (dag, DagConfig::new(rt), input)
}

fn fnv1a(t: &Tensor) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in t.as_slice() {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(case, output digest, makespan_s bits, total_energy_j bits)` of every
/// reference pipeline (`run`, then `run_conventional` over 8 partitions,
/// which reports no energy) and of the serving DAG guarded and unguarded.
/// Recorded before element-wise chains ran op-outer and before stages
/// moved their inputs; re-record (run with `--nocapture` and copy the
/// printed table) only for a change *meant* to move these bits.
const DAG_GOLDEN: [(&str, u64, u64, u64); 8] = [
    (
        "vision",
        0x2774a00de26afd2a,
        0x3f350e846c22b39c,
        0x3f572d529290053f,
    ),
    (
        "vision/conventional",
        0x9d9f94f3fed2d480,
        0x3f126690c55b69fc,
        0x0000000000000000,
    ),
    (
        "dwt",
        0x4f02946b9dbd35b5,
        0x3f2cdb813b410330,
        0x3f4d9b9398fd2fff,
    ),
    (
        "dwt/conventional",
        0x8b764b9a6a927553,
        0x3f1affd911454c0c,
        0x0000000000000000,
    ),
    (
        "chain",
        0xd59f0a85cc2b045b,
        0x3f3eedf55545f16b,
        0x3f6170891d3e350b,
    ),
    (
        "chain/conventional",
        0x4b798ffffae44ca5,
        0x3f1a4c7d763e45f0,
        0x0000000000000000,
    ),
    (
        "serve/unguarded",
        0xa6f0cdd06f0d011b,
        0x3f569afc7d1f24f0,
        0x3f819dd81000ebbc,
    ),
    (
        "serve/guarded",
        0xa6f0cdd06f0d011b,
        0x3f5abb9d877061a4,
        0x3f8294c5884184c7,
    ),
];

fn dag_digests() -> Vec<(String, u64, u64, u64)> {
    let mut got = Vec::new();
    for p in pipelines() {
        let d = p.dag.run(&p.input, &p.config).expect("pipeline runs");
        got.push((
            p.name.to_owned(),
            fnv1a(&d.output),
            d.makespan_s.to_bits(),
            d.total_energy_j.to_bits(),
        ));
        let (s, out) = p
            .dag
            .run_conventional(&p.input, 8)
            .expect("conventional walk");
        got.push((
            format!("{}/conventional", p.name),
            fnv1a(&out),
            s.to_bits(),
            0,
        ));
    }
    for guarded in [false, true] {
        let (dag, config, input) = serve_guard_dag(guarded);
        let d = dag.run(&input, &config).expect("serving DAG runs");
        let name = if guarded {
            "serve/guarded"
        } else {
            "serve/unguarded"
        };
        got.push((
            name.to_owned(),
            fnv1a(&d.output),
            d.makespan_s.to_bits(),
            d.total_energy_j.to_bits(),
        ));
    }
    got
}

#[test]
fn dag_outputs_and_timings_match_recorded_digests() {
    let got = dag_digests();
    let want: Vec<(String, u64, u64, u64)> = DAG_GOLDEN
        .iter()
        .map(|&(n, o, m, e)| (n.to_owned(), o, m, e))
        .collect();
    if got != want {
        for (n, o, m, e) in &got {
            println!("    ({n:?}, {o:#018x}, {m:#018x}, {e:#018x}),");
        }
        assert_eq!(got.len(), want.len(), "case count changed");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w, "{}: DAG output or timing bits changed", g.0);
        }
    }
}
