//! Tests over [`shmt::VopDag`]: node labels and the implied topological
//! order must never change computed values, fully-overlapping Edge-TPU
//! placements must make interior edges entirely device-resident (zero
//! staged input elements), the reference pipelines in [`pipelines`]
//! must compose within the charges of their own stages, and re-timing a
//! stage must charge exactly what the stage's own run charged, less its
//! residency discounts.
//!
//! Random cases are drawn from a seeded [`Pcg32`] stream, so every run
//! explores the same graphs and failures reproduce exactly.

use shmt::dag::{DagConfig, DagNode, VopDag};
use shmt::sampling::SamplingMethod;
use shmt::{NodeOp, Policy, QawsAssignment, RuntimeConfig, Tensor};
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
    let relu_root = DagNode {
        op: NodeOp::Unary(UnaryOp::Relu),
        deps: vec![],
        max_mape: None,
    };
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
                relu_root,
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

/// `DagConfig::residency_dispatch` hands each stage's planner the share
/// of its input the upstream stage left on the Edge TPU, widening the
/// QAWS admission by `1 + share`. Off (the default) it is the neutral
/// 0.0; on, this DCT chain stays deterministic and its downstream stages
/// run a larger share on the TPU than under the hint-free plan. (The
/// widening is a statement about the *plan*; stealing can still move the
/// executed share of other chains either way.)
#[test]
fn residency_dispatch_widens_downstream_tpu_share() {
    let mut rt = RuntimeConfig::new(Policy::Qaws {
        assignment: shmt::QawsAssignment::TopK,
        sampling: shmt::sampling::SamplingMethod::Striding,
    });
    rt.partitions = 32;
    let off = DagConfig::new(rt);
    assert!(!off.residency_dispatch, "off by default");
    let mut on = off;
    on.residency_dispatch = true;

    let dag = VopDag::linear(&[
        (Benchmark::Dct8x8, 1),
        (Benchmark::Dct8x8, 2),
        (Benchmark::Dct8x8, 3),
    ])
    .expect("valid chain");
    let input = gen::image8(256, 256, 5);
    let tpu_share = |r: &shmt::DagReport, stage: usize| r.stages[stage].report.tpu_fraction;

    let base = dag.run(&input, &off).expect("hint-off run");
    let hinted = dag.run(&input, &on).expect("hinted run");
    let again = dag.run(&input, &on).expect("hinted rerun");
    assert_eq!(hinted.output.as_slice(), again.output.as_slice());
    assert_eq!(hinted.makespan_s, again.makespan_s);

    // The root has no upstream, so its hint is the neutral 0.0 and its
    // stage is the hint-off stage bit for bit.
    assert!(tpu_share(&base, 0) > 0.0, "the chain must reach the TPU");
    assert_eq!(tpu_share(&hinted, 0), tpu_share(&base, 0));
    assert_eq!(
        hinted.stages[0].report.makespan_s,
        base.stages[0].report.makespan_s
    );
    for stage in 1..base.stages.len() {
        assert!(
            tpu_share(&hinted, stage) > tpu_share(&base, stage),
            "stage {stage}: hinted {} vs hint-free {}",
            tpu_share(&hinted, stage),
            tpu_share(&base, stage)
        );
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
