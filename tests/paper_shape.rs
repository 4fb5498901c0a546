//! The paper's headline claims, as executable assertions at reduced scale.
//! These run the same harness as `lobster_figures` (smaller, faster) and
//! pin the *shape* of every result: orderings and rough factors, not
//! absolute numbers.

use lobster_repro::bench::{paper_config, run_policy, BenchParams, DatasetKind};
use lobster_repro::core::{models, ModelProfile};
use lobster_repro::metrics::Instruments;
use lobster_repro::pipeline::RunReport;

const PARAMS: BenchParams = BenchParams {
    scale: 512,
    epochs: 3,
    seed: 42,
};

fn run(kind: DatasetKind, nodes: usize, model: ModelProfile, name: &str) -> RunReport {
    let cfg = paper_config(kind, nodes, model, PARAMS);
    run_policy(cfg, name, &Instruments::disabled())
}

fn run_1k(nodes: usize, name: &str) -> RunReport {
    run(DatasetKind::ImageNet1k, nodes, models::resnet50(), name)
}

#[test]
fn figure7_lobster_beats_every_baseline() {
    let pt = run_1k(1, "pytorch");
    let dali = run_1k(1, "dali");
    let nopfs = run_1k(1, "nopfs");
    let lobster = run_1k(1, "lobster");
    // Lobster fastest, 1.3–2.0× over PyTorch (paper's overall claim).
    let speedup = pt.mean_epoch_s() / lobster.mean_epoch_s();
    assert!(
        speedup > 1.3 && speedup < 2.5,
        "Lobster vs PyTorch: {speedup:.2}x"
    );
    assert!(lobster.mean_epoch_s() < dali.mean_epoch_s());
    assert!(lobster.mean_epoch_s() < nopfs.mean_epoch_s());
    // NoPFS is the strongest baseline.
    assert!(nopfs.mean_epoch_s() < pt.mean_epoch_s());
    assert!(nopfs.mean_epoch_s() < dali.mean_epoch_s());
}

#[test]
fn figure7c_multi_node_widens_the_gap() {
    let pt = run(DatasetKind::ImageNet22k, 8, models::resnet50(), "pytorch");
    let lobster = run(DatasetKind::ImageNet22k, 8, models::resnet50(), "lobster");
    let speedup = pt.mean_epoch_s() / lobster.mean_epoch_s();
    assert!(
        speedup > 1.4,
        "multi-node speedup {speedup:.2}x should approach the paper's 2.0x"
    );
}

#[test]
fn section55_hit_ratio_ordering() {
    let hit = |name: &str| run_1k(1, name).mean_hit_ratio();
    let (pt, dali, nopfs, lobster) = (hit("pytorch"), hit("dali"), hit("nopfs"), hit("lobster"));
    assert!(pt <= dali + 1e-9, "pytorch {pt} vs dali {dali}");
    assert!(dali <= nopfs + 1e-9, "dali {dali} vs nopfs {nopfs}");
    assert!(nopfs < lobster, "nopfs {nopfs} vs lobster {lobster}");
    // The abstract's headline: Lobster improves on NoPFS by >10 points.
    assert!(
        lobster - nopfs > 0.10,
        "gap {:.1} points",
        (lobster - nopfs) * 100.0
    );
}

#[test]
fn figure8_lobster_minimizes_imbalance() {
    let imb = |name: &str| run_1k(1, name).imbalance_fraction();
    let lobster = imb("lobster");
    let baselines: Vec<f64> = ["pytorch", "dali", "nopfs"]
        .iter()
        .map(|n| imb(n))
        .collect();
    // No baseline does better, and the worst baseline is strictly worse.
    for (name, &other) in ["pytorch", "dali", "nopfs"].iter().zip(&baselines) {
        assert!(
            lobster <= other,
            "lobster {lobster} must not lose to {name} {other}"
        );
    }
    let worst = baselines.iter().copied().fold(0.0, f64::max);
    assert!(
        lobster < worst,
        "lobster {lobster} vs worst baseline {worst}"
    );
}

#[test]
fn figure10_gpu_utilization_ordering() {
    let util = |name: &str| run_1k(1, name).mean_gpu_utilization();
    let lobster = util("lobster");
    for name in ["pytorch", "dali", "nopfs"] {
        assert!(lobster > util(name), "lobster utilization must be highest");
    }
}

#[test]
fn figure11_ablation_shape() {
    let epoch = |name: &str| run_1k(1, name).mean_epoch_s();
    let dali = epoch("dali");
    let th = epoch("lobster_th");
    let evict = epoch("lobster_evict");
    let full = epoch("lobster");
    // Both halves beat DALI; thread management contributes more; the full
    // system is at least as good as either half.
    assert!(th < dali, "lobster_th {th} vs dali {dali}");
    assert!(evict < dali, "lobster_evict {evict} vs dali {dali}");
    assert!(
        th <= evict,
        "thread management ({th}) should contribute more than eviction ({evict})"
    );
    assert!(full <= th * 1.02, "full lobster {full} vs th {th}");
}

#[test]
fn figure11_eviction_helps_small_models_more() {
    let gain = |model: ModelProfile| {
        let dali = run(DatasetKind::ImageNet1k, 1, model.clone(), "dali");
        let evict = run(DatasetKind::ImageNet1k, 1, model, "lobster_evict");
        dali.mean_epoch_s() / evict.mean_epoch_s()
    };
    let small = gain(models::squeezenet());
    let large = gain(models::vgg11());
    assert!(
        small >= large,
        "eviction gain for squeezenet ({small:.2}x) should be ≥ vgg11 ({large:.2}x)"
    );
}

#[test]
fn figure9_loaders_share_the_learning_curve() {
    use lobster_repro::pipeline::{max_gap, simulate_accuracy};
    let model = models::resnet50();
    let a = simulate_accuracy("pytorch", &model, 60, 42, 1);
    let b = simulate_accuracy("lobster", &model, 60, 42, 2);
    assert!(
        max_gap(&a, &b) < 0.03,
        "curves must track: gap {}",
        max_gap(&a, &b)
    );
    assert!(a.epochs_to_reach(0.74).is_some());
    assert!(b.epochs_to_reach(0.74).is_some());
}
