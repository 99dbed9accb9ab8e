//! A kernel without a lookup row passes `KernelDag::validate` but no
//! processor can run it. The static planners must reject such a graph with
//! a typed error from `prepare`, not panic while planning; MET on the same
//! graph ends in starvation.

use apt_base::BaseError;
use apt_dfg::generator::build_type1;
use apt_dfg::{Kernel, KernelDag, KernelKind, LookupTable};
use apt_hetsim::{simulate, Policy, SystemConfig};
use apt_policies::{Heft, Met, Peft};

/// `Gem` at a size the paper table does not list, between two listed
/// kernels.
fn graph_with_unlisted_kernel() -> KernelDag {
    let dfg = build_type1(&[
        Kernel::canonical(KernelKind::Bfs),
        Kernel::new(KernelKind::Gem, 12_345),
        Kernel::canonical(KernelKind::NeedlemanWunsch),
    ]);
    dfg.validate().unwrap();
    dfg
}

fn run(policy: &mut dyn Policy) -> Result<(), BaseError> {
    let dfg = graph_with_unlisted_kernel();
    simulate(
        &dfg,
        &SystemConfig::paper_4gbps(),
        LookupTable::paper(),
        policy,
    )
    .map(|_| ())
}

#[test]
fn heft_and_peft_return_missing_lookup() {
    for policy in [&mut Heft::new() as &mut dyn Policy, &mut Peft::new()] {
        let name = policy.name();
        assert_eq!(
            run(policy),
            Err(BaseError::MissingLookup {
                kernel: "gem",
                data_size: 12_345,
                proc: "any",
            }),
            "{name}"
        );
    }
}

#[test]
fn met_starves_on_the_same_graph() {
    assert!(matches!(
        run(&mut Met::new()),
        Err(BaseError::Starvation { .. })
    ));
}
