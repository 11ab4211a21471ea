//! End-to-end pipeline tests: CSV ingestion → contingency table →
//! acquisition → knowledge base → queries, rules, expert shell and JSON
//! persistence, all through the public facade crate.

use pka::contingency::csv::{parse_csv, to_csv, CsvSchema};
use pka::contingency::{Assignment, Attribute, Schema, VarSet};
use pka::core::{induce_rules, serialize, Acquisition, Query, RuleInductionConfig};
use pka::datagen::smoking;
use pka::expert::{explain_query, Evidence, ExpertSystem, RuleBase};

/// Build a small CSV in memory, ingest it, acquire, and query.
#[test]
fn csv_to_knowledge_base_pipeline() {
    // A tiny survey where "training=yes" strongly predicts "cert=yes".
    let mut csv = String::from("training,cert,remote\n");
    let rows = [
        ("yes", "yes", "yes", 30),
        ("yes", "yes", "no", 28),
        ("yes", "no", "yes", 7),
        ("yes", "no", "no", 5),
        ("no", "yes", "yes", 6),
        ("no", "yes", "no", 8),
        ("no", "no", "yes", 27),
        ("no", "no", "no", 29),
    ];
    for (training, cert, remote, copies) in rows {
        for _ in 0..copies {
            csv.push_str(&format!("{training},{cert},{remote}\n"));
        }
    }

    let dataset = parse_csv(&csv, CsvSchema::Infer).expect("CSV parses");
    assert_eq!(dataset.len(), 140);
    // Round-trip through the CSV writer.
    let rewritten = to_csv(&dataset);
    let reparsed = parse_csv(&rewritten, CsvSchema::Infer).expect("round trip parses");
    assert_eq!(reparsed.to_table(), dataset.to_table());

    let table = dataset.to_table();
    let kb = Acquisition::with_defaults().run(&table).expect("acquisition succeeds").knowledge_base;

    // The training→cert association must be discovered…
    let training = kb.schema().attribute_index("training").unwrap();
    let cert = kb.schema().attribute_index("cert").unwrap();
    assert!(
        kb.significant_constraints()
            .iter()
            .any(|c| c.assignment.vars() == VarSet::from_indices([training, cert])),
        "no training × cert constraint discovered"
    );
    // …and reflected in the conditional probabilities.
    let with_training = kb
        .conditional_by_names(&[("cert", "yes")], &[("training", "yes")])
        .expect("query evaluates");
    let without_training = kb
        .conditional_by_names(&[("cert", "yes")], &[("training", "no")])
        .expect("query evaluates");
    assert!(with_training > 2.0 * without_training);
    // The "remote" attribute carries no signal, so conditioning on it moves
    // the belief very little.
    let with_remote =
        kb.conditional_by_names(&[("cert", "yes")], &[("remote", "yes")]).expect("query evaluates");
    let prior = kb.probability(&Assignment::from_names(kb.schema(), &[("cert", "yes")]).unwrap());
    assert!((with_remote - prior).abs() < 0.05);
}

/// The knowledge base survives JSON serialisation and keeps answering
/// queries identically; rules and the expert shell work off the restored
/// copy.
#[test]
fn persistence_and_downstream_consumers() {
    let table = smoking::table();
    let kb = Acquisition::with_defaults().run(&table).expect("acquisition succeeds").knowledge_base;

    let json = serialize::to_json(&kb).expect("serialises");
    let restored = serialize::from_json(&json).expect("deserialises");

    // Identical answers on a grid of conditional queries.
    let schema = kb.schema();
    for target_value in 0..schema.cardinality(1).unwrap() {
        for evidence_value in 0..schema.cardinality(0).unwrap() {
            let target = Assignment::single(1, target_value);
            let evidence = Assignment::single(0, evidence_value);
            let a = kb.conditional(&target, &evidence).unwrap();
            let b = restored.conditional(&target, &evidence).unwrap();
            assert!((a - b).abs() < 1e-12);
        }
    }

    // Rule induction and the rule base fire identically.
    let config = RuleInductionConfig::default();
    let rules_a = induce_rules(&kb, &config).unwrap();
    let rules_b = induce_rules(&restored, &config).unwrap();
    assert_eq!(rules_a.len(), rules_b.len());

    let rule_base = RuleBase::compile(&restored, &config).unwrap();
    let mut evidence = Evidence::none();
    evidence.assert_named(&restored.shared_schema(), "smoking", "smoker").unwrap();
    let fired = rule_base.fire(&evidence);
    assert!(!fired.is_empty());

    // The expert shell built on the restored knowledge base.
    let mut shell = ExpertSystem::new(restored);
    shell.assert_named("smoking", "smoker").unwrap();
    let hypotheses = shell.posterior_named("cancer").unwrap();
    assert!((hypotheses.iter().map(|h| h.posterior).sum::<f64>() - 1.0).abs() < 1e-9);
    assert!(hypotheses[0].posterior > hypotheses[0].prior);

    // And explanations reference the discovered constraints.
    let explanation = explain_query(
        shell.knowledge_base(),
        &Assignment::single(1, 0),
        shell.evidence().assignment(),
    )
    .unwrap();
    assert!(explanation.posterior > explanation.prior);
    assert!(!explanation.render(shell.knowledge_base().schema()).is_empty());
}

/// A user-declared schema (names, not indices) drives the whole pipeline.
#[test]
fn named_schema_pipeline() {
    let schema = Schema::new(vec![
        Attribute::new("sensor", ["nominal", "degraded", "failed"]),
        Attribute::new("thermal", ["cold", "normal", "hot"]),
        Attribute::yes_no("anomaly"),
    ])
    .expect("schema valid");
    let mut dataset = pka::contingency::Dataset::new(schema);
    // Failed sensors in hot conditions produce anomalies.
    for (sensor, thermal, anomaly, copies) in [
        ("nominal", "normal", "no", 300),
        ("nominal", "cold", "no", 80),
        ("nominal", "hot", "no", 70),
        ("nominal", "hot", "yes", 10),
        ("degraded", "normal", "no", 60),
        ("degraded", "hot", "yes", 25),
        ("degraded", "hot", "no", 15),
        ("failed", "hot", "yes", 40),
        ("failed", "normal", "yes", 12),
        ("failed", "normal", "no", 8),
        ("failed", "cold", "yes", 5),
        ("failed", "cold", "no", 5),
    ] {
        for _ in 0..copies {
            dataset
                .push_named(&[("sensor", sensor), ("thermal", thermal), ("anomaly", anomaly)])
                .unwrap();
        }
    }
    let kb = Acquisition::with_defaults()
        .run(&dataset.to_table())
        .expect("acquisition succeeds")
        .knowledge_base;

    let q = Query::from_names(kb.schema(), &[("anomaly", "yes")], &[("sensor", "failed")]).unwrap();
    let failed = kb.query(&q).unwrap();
    let nominal = kb.conditional_by_names(&[("anomaly", "yes")], &[("sensor", "nominal")]).unwrap();
    assert!(failed.probability > 0.5);
    assert!(nominal < 0.15);
    assert!(failed.lift() > 3.0);

    // Rules targeted at the anomaly attribute are induced and readable.
    let anomaly_attr = kb.schema().attribute_index("anomaly").unwrap();
    let rules = induce_rules(
        &kb,
        &RuleInductionConfig::default()
            .with_target_attributes(VarSet::singleton(anomaly_attr))
            .with_min_support(0.02),
    )
    .unwrap();
    assert!(!rules.is_empty());
    assert!(rules.iter().any(|r| r.format(kb.schema()).contains("sensor=failed")));
}
