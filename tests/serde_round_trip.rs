//! Serialization round-trip and validation tests for the on-disk
//! formats the CLI exchanges: scenarios (JSON) and traces (SWF), plus
//! one test per `#[serde]` attribute the vendored derive supports.

use gridvo_core::{FormationScenario, Gsp};
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::runner::seeded_rng;
use gridvo_sim::TableI;
use gridvo_solver::AssignmentInstance;
use gridvo_trust::TrustGraph;

fn scenario() -> FormationScenario {
    let cfg = TableI {
        gsps: 5,
        task_sizes: vec![15],
        trace_jobs: 1_500,
        deadline_factor_range: (4.0, 16.0),
        ..TableI::default()
    };
    let generator = ScenarioGenerator::new(cfg);
    let mut rng = seeded_rng(0x5E2DE, 1);
    generator.scenario(15, &mut rng).expect("calibrated scenario")
}

#[test]
fn scenario_round_trips_exactly() {
    let s = scenario();
    let json = serde_json::to_string(&s).unwrap();
    let back: FormationScenario = serde_json::from_str(&json).unwrap();
    assert_eq!(s.instance(), back.instance());
    assert_eq!(s.trust(), back.trust());
    assert_eq!(s.gsps(), back.gsps());
}

#[test]
fn trust_graph_round_trips() {
    let mut g = TrustGraph::new(4);
    g.set_trust(0, 1, 0.75);
    g.set_trust(3, 2, 0.25);
    let json = serde_json::to_string(&g).unwrap();
    let back: TrustGraph = serde_json::from_str(&json).unwrap();
    assert_eq!(g, back);
}

#[test]
fn instance_round_trips() {
    let i =
        AssignmentInstance::new(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![1.0; 6], 5.0, 10.0)
            .unwrap();
    let json = serde_json::to_string(&i).unwrap();
    let back: AssignmentInstance = serde_json::from_str(&json).unwrap();
    assert_eq!(i, back);
}

#[test]
fn malformed_instance_json_rejected() {
    // negative cost entry
    let bad = r#"{"tasks":2,"gsps":2,"cost":[1.0,-1.0,1.0,1.0],"time":[1.0,1.0,1.0,1.0],"deadline":5.0,"payment":10.0}"#;
    assert!(serde_json::from_str::<AssignmentInstance>(bad).is_err());
    // shape mismatch
    let bad = r#"{"tasks":2,"gsps":2,"cost":[1.0],"time":[1.0,1.0,1.0,1.0],"deadline":5.0,"payment":10.0}"#;
    assert!(serde_json::from_str::<AssignmentInstance>(bad).is_err());
    // fewer tasks than GSPs (constraint 13)
    let bad =
        r#"{"tasks":1,"gsps":2,"cost":[1.0,1.0],"time":[1.0,1.0],"deadline":5.0,"payment":10.0}"#;
    assert!(serde_json::from_str::<AssignmentInstance>(bad).is_err());
}

#[test]
fn malformed_trust_json_rejected() {
    // negative weight
    let bad = r#"{"weights":{"rows":2,"cols":2,"data":[0.0,-0.5,0.0,0.0]}}"#;
    assert!(serde_json::from_str::<TrustGraph>(bad).is_err());
    // non-square
    let bad = r#"{"weights":{"rows":2,"cols":3,"data":[0,0,0,0,0,0]}}"#;
    assert!(serde_json::from_str::<TrustGraph>(bad).is_err());
    // data length mismatch inside the matrix
    let bad = r#"{"weights":{"rows":2,"cols":2,"data":[0.0]}}"#;
    assert!(serde_json::from_str::<TrustGraph>(bad).is_err());
}

#[test]
fn desynchronized_scenario_rejected() {
    // 3 GSPs declared, but a 2×2 trust graph
    let gsps: Vec<Gsp> = (0..3).map(|i| Gsp::new(i, 100.0)).collect();
    let trust = TrustGraph::new(2);
    let instance = AssignmentInstance::new(4, 3, vec![1.0; 12], vec![1.0; 12], 5.0, 10.0).unwrap();
    // Can't build it through the constructor, so splice JSON by hand.
    let json = format!(
        r#"{{"gsps":{},"trust":{},"instance":{}}}"#,
        serde_json::to_string(&gsps).unwrap(),
        serde_json::to_string(&trust).unwrap(),
        serde_json::to_string(&instance).unwrap(),
    );
    assert!(serde_json::from_str::<FormationScenario>(&json).is_err());
}

#[test]
fn outcome_serializes_for_archival() {
    use gridvo_core::mechanism::{FormationConfig, Mechanism};
    use rand::SeedableRng;
    let s = scenario();
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let outcome = Mechanism::tvof(FormationConfig::default()).run(&s, &mut rng).unwrap();
    let json = serde_json::to_string_pretty(&outcome).unwrap();
    assert!(json.contains("iterations"));
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert!(value["iterations"].as_array().unwrap().len() == outcome.iterations.len());
}

/// Types exercising every derive attribute the workspace relies on.
mod derive {
    use serde::{Deserialize, Serialize};

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    #[serde(tag = "op", rename_all = "snake_case")]
    pub enum Shape {
        UnitCircle,
        RightTriangle {
            base: f64,
            height: f64,
        },
        #[serde(rename = "sq")]
        Square {
            side: u64,
            #[serde(default)]
            filled: bool,
            #[serde(skip_serializing_if = "Option::is_none")]
            label: Option<String>,
        },
    }

    #[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
    #[serde(rename_all = "snake_case")]
    pub enum Color {
        #[default]
        DeepRed,
        Blue,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    pub struct Paint {
        #[serde(default)]
        pub color: Color,
        pub coats: u8,
    }

    /// Decodes through `RawEven`, refusing odd numbers.
    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    #[serde(try_from = "RawEven")]
    pub struct Even {
        pub n: u32,
    }

    #[derive(Deserialize)]
    pub struct RawEven {
        n: u32,
    }

    impl TryFrom<RawEven> for Even {
        type Error = String;
        fn try_from(raw: RawEven) -> Result<Self, String> {
            match raw.n % 2 {
                0 => Ok(Even { n: raw.n }),
                _ => Err(format!("{} is odd", raw.n)),
            }
        }
    }
}

use derive::{Color, Even, Paint, Shape};

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

fn parse<T: serde::Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str(line).map_err(|e| e.to_string())
}

#[test]
fn tag_and_rename_all_write_the_tag_first_in_snake_case() {
    let triangle = Shape::RightTriangle { base: 3.0, height: 4.5 };
    assert_eq!(json(&triangle), r#"{"op":"right_triangle","base":3.0,"height":4.5}"#);
    assert_eq!(json(&Shape::UnitCircle), r#"{"op":"unit_circle"}"#);
    assert_eq!(parse::<Shape>(r#"{"height":4.5,"op":"right_triangle","base":3}"#), Ok(triangle));
    assert_eq!(parse::<Shape>(r#"{"op":"unit_circle","extra":[1]}"#), Ok(Shape::UnitCircle));
}

#[test]
fn variant_rename_and_skip_serializing_if() {
    let bare = Shape::Square { side: u64::MAX, filled: true, label: None };
    assert_eq!(json(&bare), r#"{"op":"sq","side":18446744073709551615,"filled":true}"#);
    let labelled = Shape::Square { side: 2, filled: false, label: Some("a".to_string()) };
    assert_eq!(json(&labelled), r#"{"op":"sq","side":2,"filled":false,"label":"a"}"#);
    assert_eq!(parse::<Shape>(&json(&bare)), Ok(bare));
    assert_eq!(parse::<Shape>(&json(&labelled)), Ok(labelled));
}

#[test]
fn default_fields_read_absent_and_null_as_default() {
    let square = Shape::Square { side: 2, filled: false, label: None };
    assert_eq!(parse::<Shape>(r#"{"op":"sq","side":2}"#), Ok(square));
    let square = Shape::Square { side: 2, filled: false, label: None };
    assert_eq!(parse::<Shape>(r#"{"op":"sq","side":2,"filled":null}"#), Ok(square));
    let paint = Paint { color: Color::DeepRed, coats: 2 };
    assert_eq!(parse::<Paint>(r#"{"coats":2}"#), Ok(paint));
    let paint = Paint { color: Color::DeepRed, coats: 2 };
    assert_eq!(parse::<Paint>(r#"{"coats":2,"color":null}"#), Ok(paint));
    // A present value must still be well-formed.
    assert!(parse::<Shape>(r#"{"op":"sq","side":2,"filled":1}"#).is_err());
}

#[test]
fn unit_enums_travel_as_their_names() {
    let paint = Paint { color: Color::Blue, coats: 1 };
    assert_eq!(json(&paint), r#"{"color":"blue","coats":1}"#);
    assert_eq!(json(&Color::DeepRed), r#""deep_red""#);
    assert_eq!(parse::<Paint>(&json(&paint)), Ok(paint));
}

#[test]
fn unknown_tags_and_names_are_refused_naming_the_value() {
    assert_eq!(parse::<Shape>(r#"{"op":"hexagon"}"#), Err(r#"unknown op "hexagon""#.to_string()));
    assert_eq!(parse::<Shape>(r#"{"side":2}"#), Err("missing field `op`".to_string()));
    assert_eq!(parse::<Color>(r#""green""#), Err(r#"unknown variant "green""#.to_string()));
    assert_eq!(
        parse::<Paint>(r#"{"color":"green","coats":1}"#),
        Err(r#"field `color`: unknown variant "green""#.to_string())
    );
    assert_eq!(parse::<Color>("3"), Err("expected string, found integer".to_string()));
}

#[test]
fn try_from_converts_after_decoding_the_raw_type() {
    assert_eq!(json(&Even { n: 4 }), r#"{"n":4}"#);
    assert_eq!(parse::<Even>(r#"{"n":4}"#), Ok(Even { n: 4 }));
    assert_eq!(parse::<Even>(r#"{"n":5}"#), Err("5 is odd".to_string()));
}

#[test]
fn derived_writer_bytes_equal_the_bytes_of_their_value() {
    use serde_json::Value;
    let lines = [
        json(&Paint { color: Color::Blue, coats: 1 }),
        json(&Shape::UnitCircle),
        json(&Shape::Square { side: 1, filled: false, label: None }),
        json(&Shape::Square { side: 1, filled: false, label: Some(String::new()) }),
    ];
    for line in lines {
        let value: Value = serde_json::from_str(&line).unwrap();
        assert!(matches!(value, Value::Object(_)), "{line}");
        assert_eq!(json(&value), line);
    }
}
