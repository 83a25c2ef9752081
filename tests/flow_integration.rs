//! Integration tests for the full downstream-user flow: ITC'02 input →
//! planning → tester-image export → bit-exact verification → RTL
//! emission, plus the scheduling extensions (precedence, annealing) driven
//! from planner outputs.

#![forbid(unsafe_code)]

use soc_tdc::model::generator::synthesize_missing_test_sets;
use soc_tdc::model::itc02::{parse_itc02, write_itc02};
use soc_tdc::planner::{export_image, verify_image, DecisionConfig, PlanRequest, Planner};
use soc_tdc::selenc::{generate_verilog, SliceCode, SliceStats};
use soc_tdc::tam::{anneal_architecture, schedule_with, AnnealOptions, Constraints, CostModel};

const ITC02_TEXT: &str = "\
SocName flow
TotalModules 4
Module 0
  Level 0
  TotalTests 0
Module 1
  Level 1
  Inputs 12 Outputs 10
  ScanChains 12 : 20 20 20 20 20 20 18 18 18 18 18 18
  TotalTests 1
  Test 1:
    TotalPatterns 25
Module 2
  Level 1
  Inputs 20 Outputs 20
  ScanChains 16 : 25 25 25 25 25 25 25 25 24 24 24 24 24 24 24 24
  TotalTests 1
  Test 1:
    TotalPatterns 30
Module 3
  Level 1
  Inputs 8 Outputs 8
  ScanChains 10 : 30 30 30 30 30 28 28 28 28 28
  TotalTests 1
  Test 1:
    TotalPatterns 20
";

fn prepared_soc() -> soc_tdc::model::Soc {
    let mut soc = parse_itc02(ITC02_TEXT, 0.05).unwrap().soc;
    synthesize_missing_test_sets(&mut soc, 123);
    soc
}

#[test]
fn itc02_to_verified_tester_image() {
    let soc = prepared_soc();
    let plan = Planner::per_core_tdc()
        .plan(&soc, &PlanRequest::tam_width(12).exact())
        .unwrap();
    let image = export_image(&soc, &plan).unwrap();
    verify_image(&image, &soc, &plan).unwrap();
    // Compression visible end to end on these sparse cubes.
    assert!(image.volume_bits() < soc.initial_volume_bits());
}

#[test]
fn itc02_writer_reader_roundtrip_through_planning() {
    let soc = prepared_soc();
    let rewritten = write_itc02(&soc);
    let mut reparsed = parse_itc02(&rewritten, 0.05).unwrap().soc;
    synthesize_missing_test_sets(&mut reparsed, 123);
    let a = Planner::no_tdc()
        .plan(&soc, &PlanRequest::tam_width(10))
        .unwrap();
    let b = Planner::no_tdc()
        .plan(&reparsed, &PlanRequest::tam_width(10))
        .unwrap();
    assert_eq!(a.test_time, b.test_time, "structure survived the roundtrip");
}

#[test]
fn rtl_is_emitted_for_every_planned_decompressor() {
    let soc = prepared_soc();
    let plan = Planner::per_core_tdc()
        .plan(&soc, &PlanRequest::tam_width(12).exact())
        .unwrap();
    let mut emitted = 0;
    for s in &plan.core_settings {
        if let Some((_, m)) = s.decompressor {
            let name = format!("decomp_{}", s.core.0);
            let v = generate_verilog(SliceCode::for_chains(m), &name);
            assert!(v.contains(&format!("module {name} (")));
            assert!(v.contains(&format!("output reg  [{}:0]      slice,", m - 1)));
            emitted += 1;
        }
    }
    assert!(
        emitted > 0,
        "sparse cores should have received decompressors"
    );
}

#[test]
fn slice_stats_explain_planner_choices() {
    let soc = prepared_soc();
    let core = &soc.cores()[0];
    // At the planner's preferred class the minority-care count per slice is
    // small — that is *why* compression wins on this core.
    let stats = SliceStats::for_core(core, 24, usize::MAX);
    assert!(stats.mean_targets_per_slice < 2.0, "{stats:?}");
    assert!(stats.slices_per_pattern > 0);
}

#[test]
fn planner_output_feeds_scheduling_extensions() {
    let soc = prepared_soc();
    let plan = Planner::per_core_tdc()
        .plan(
            &soc,
            &PlanRequest::tam_width(12).with_decisions(DecisionConfig {
                pattern_sample: Some(8),
                m_candidates: 8,
            }),
        )
        .unwrap();

    // Rebuild a cost model at the plan's operating points.
    let max_w = plan.schedule.tam_widths().iter().copied().max().unwrap();
    let mut cost = CostModel::new(max_w);
    for s in &plan.core_settings {
        let mut row = vec![None; max_w as usize];
        for w in s.tam_width..=max_w {
            row[(w - 1) as usize] = Some(s.test_time);
        }
        cost.push_core(&s.name, row);
    }
    let widths = plan.schedule.tam_widths().to_vec();

    // Precedence: module order 0 → 1 → 2 must be honored.
    let prec = Constraints {
        precedence: vec![(0, 1), (1, 2)],
        ..Constraints::default()
    };
    let sched = schedule_with(&cost, &widths, &prec).unwrap();
    sched.validate(&cost).unwrap();
    prec.validate(&cost, &sched).unwrap();

    // Annealing over the same cost model produces a valid architecture at
    // least as good as one big TAM.
    let arch = anneal_architecture(&cost, max_w, &AnnealOptions::default()).unwrap();
    arch.schedule.validate(&cost).unwrap();
}

#[test]
fn sampled_plans_may_overflow_export_and_say_so() {
    // Image export demands exact stream lengths; a sampled plan either
    // works or fails with the documented SlotOverflow — never silently
    // corrupts.
    let soc = prepared_soc();
    let plan = Planner::per_core_tdc()
        .plan(
            &soc,
            &PlanRequest::tam_width(12).with_decisions(DecisionConfig {
                pattern_sample: Some(2),
                m_candidates: 4,
            }),
        )
        .unwrap();
    match export_image(&soc, &plan) {
        Ok(image) => verify_image(&image, &soc, &plan).unwrap(),
        Err(e) => assert!(
            matches!(e, soc_tdc::planner::ImageError::SlotOverflow { .. }),
            "unexpected error {e}"
        ),
    }
}
