//! The std-only shims must behave like the crates they stand in for on
//! everything the repository does with them: every serde attribute in
//! use, floats bit for bit, the non-finite sentinels, and the store's and
//! protocol's own record types through the JSON codec.

use mltrace_protocol::{Request, Response};
use mltrace_store::{
    ComponentRunRecord, EventKind, EventSeverity, MetricRecord, ObservabilityEvent, RunBundle,
    RunId, RunStatus, TriggerOutcomeRecord, Value,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Debug;

fn round_trip<T>(value: &T) -> String
where
    T: Serialize + for<'de> Deserialize<'de> + PartialEq + Debug,
{
    let text = serde_json::to_string(value).expect("serialize");
    let back: T = serde_json::from_str(&text).expect("deserialize what was serialized");
    assert_eq!(&back, value, "through {text}");
    let bytes = serde_json::to_vec(value).expect("serialize to bytes");
    assert_eq!(bytes, text.as_bytes());
    let back: T = serde_json::from_slice(&bytes).expect("deserialize from bytes");
    assert_eq!(&back, value);
    text
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Plain {
    id: u64,
    delta: i32,
    ratio: f64,
    name: String,
    flag: bool,
    maybe: Option<String>,
    list: Vec<u16>,
    pair: (u64, f64),
    map: BTreeMap<String, i64>,
}

#[derive(Debug, PartialEq, Default, Serialize, Deserialize)]
struct WithAttributes {
    #[serde(default)]
    version: u32,
    #[serde(default)]
    label: Option<String>,
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    extra: BTreeMap<String, u8>,
    required: u8,
}

mod tenths {
    use serde::{Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(v: &f64, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(&format!("{}", (v * 10.0).round() as i64))
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<f64, D::Error> {
        use serde::de::Error as _;
        let text = String::deserialize(d)?;
        text.parse::<i64>()
            .map(|t| t as f64 / 10.0)
            .map_err(|e| D::Error::custom(format!("not tenths: {e}")))
    }
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct WithCodec {
    #[serde(with = "tenths")]
    reading: f64,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Newtype(u64);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(u8, String);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum External {
    Unit,
    Newtype(f64),
    Struct { have: usize, need: usize },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op")]
enum Internal {
    Ping,
    Exec {
        stmt: u64,
        params: Vec<i64>,
        #[serde(default)]
        note: Option<String>,
    },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "t", content = "v")]
enum Adjacent {
    Null,
    Int(i64),
    List(Vec<Adjacent>),
    Map(BTreeMap<String, Adjacent>),
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
enum Untagged {
    Number(f64),
    Text(String),
    Nothing,
}

#[test]
fn plain_struct_round_trips_with_serde_jsons_exact_text() {
    let value = Plain {
        id: u64::MAX,
        delta: -7,
        ratio: 0.5,
        name: "a \"quoted\" \\ name\n\t\u{1}é😀".into(),
        flag: true,
        maybe: None,
        list: vec![1, 2, 3],
        pair: (9, 1.0),
        map: BTreeMap::from([("k".to_string(), -1)]),
    };
    assert_eq!(
        round_trip(&value),
        "{\"id\":18446744073709551615,\"delta\":-7,\"ratio\":0.5,\
         \"name\":\"a \\\"quoted\\\" \\\\ name\\n\\t\\u0001é😀\",\"flag\":true,\
         \"maybe\":null,\"list\":[1,2,3],\"pair\":[9,1.0],\"map\":{\"k\":-1}}"
    );
}

#[test]
fn default_and_skip_serializing_if() {
    let sparse = WithAttributes {
        required: 3,
        ..WithAttributes::default()
    };
    assert_eq!(
        round_trip(&sparse),
        r#"{"version":0,"label":null,"required":3}"#
    );
    let from_minimal: WithAttributes = serde_json::from_str(r#"{"required":3}"#).unwrap();
    assert_eq!(from_minimal, sparse);
    let full = WithAttributes {
        version: 2,
        label: Some("x".into()),
        extra: BTreeMap::from([("a".to_string(), 1)]),
        required: 4,
    };
    assert_eq!(
        round_trip(&full),
        r#"{"version":2,"label":"x","extra":{"a":1},"required":4}"#
    );
    // Unknown keys are ignored, a missing required one is an error, and an
    // absent `Option` without `default` reads as `None`.
    let tolerant: WithAttributes =
        serde_json::from_str(r#"{"required":1,"later_addition":[1,2]}"#).unwrap();
    assert_eq!(tolerant.required, 1);
    assert!(serde_json::from_str::<WithAttributes>(r#"{"version":1}"#).is_err());
    let plain: Result<Plain, _> = serde_json::from_str(
        r#"{"id":1,"delta":0,"ratio":1,"name":"","flag":false,"list":[],"pair":[0,0],"map":{}}"#,
    );
    assert_eq!(plain.unwrap().maybe, None);
}

#[test]
fn with_module_codec() {
    assert_eq!(
        round_trip(&WithCodec { reading: 2.5 }),
        r#"{"reading":"25"}"#
    );
    assert!(serde_json::from_str::<WithCodec>(r#"{"reading":"x"}"#).is_err());
    assert!(serde_json::from_str::<WithCodec>(r#"{}"#).is_err());
}

#[test]
fn newtype_and_tuple_structs() {
    assert_eq!(round_trip(&Newtype(7)), "7");
    assert_eq!(round_trip(&Pair(1, "b".into())), r#"[1,"b"]"#);
}

#[test]
fn externally_tagged_enum() {
    assert_eq!(round_trip(&External::Unit), r#""Unit""#);
    assert_eq!(round_trip(&External::Newtype(1.5)), r#"{"Newtype":1.5}"#);
    assert_eq!(
        round_trip(&External::Struct { have: 1, need: 2 }),
        r#"{"Struct":{"have":1,"need":2}}"#
    );
    assert!(serde_json::from_str::<External>(r#""Missing""#).is_err());
}

#[test]
fn internally_tagged_enum() {
    assert_eq!(round_trip(&Internal::Ping), r#"{"op":"Ping"}"#);
    let exec = Internal::Exec {
        stmt: 3,
        params: vec![1, -2],
        note: None,
    };
    assert_eq!(
        round_trip(&exec),
        r#"{"op":"Exec","stmt":3,"params":[1,-2],"note":null}"#
    );
    // The tag may come anywhere in the object.
    let late_tag: Internal =
        serde_json::from_str(r#"{"stmt":3,"params":[1,-2],"op":"Exec"}"#).unwrap();
    assert_eq!(late_tag, exec);
    assert!(serde_json::from_str::<Internal>(r#"{"stmt":3}"#).is_err());
    assert!(serde_json::from_str::<Internal>(r#"{"op":"Nope"}"#).is_err());
}

#[test]
fn adjacently_tagged_enum() {
    assert_eq!(round_trip(&Adjacent::Null), r#"{"t":"Null"}"#);
    let nested = Adjacent::List(vec![
        Adjacent::Int(-1),
        Adjacent::Map(BTreeMap::from([("k".to_string(), Adjacent::Null)])),
    ]);
    assert_eq!(
        round_trip(&nested),
        r#"{"t":"List","v":[{"t":"Int","v":-1},{"t":"Map","v":{"k":{"t":"Null"}}}]}"#
    );
    let content_first: Adjacent = serde_json::from_str(r#"{"v":5,"t":"Int"}"#).unwrap();
    assert_eq!(content_first, Adjacent::Int(5));
}

#[test]
fn untagged_enum_takes_the_first_variant_that_fits() {
    assert_eq!(round_trip(&Untagged::Number(2.0)), "2.0");
    assert_eq!(round_trip(&Untagged::Text("NaN".into())), r#""NaN""#);
    assert_eq!(round_trip(&Untagged::Nothing), "null");
    assert_eq!(
        serde_json::from_str::<Untagged>("3").unwrap(),
        Untagged::Number(3.0)
    );
    assert!(serde_json::from_str::<Untagged>("[1]").is_err());
}

#[test]
fn f64_round_trips_by_bits() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut cases = vec![
        0.0,
        -0.0,
        1.0,
        0.1,
        1.0 / 3.0,
        1e21,
        1e-7,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        123_456_789.123_456_79,
    ];
    for _ in 0..20_000 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let v = f64::from_bits(state);
        if v.is_finite() {
            cases.push(v);
        }
    }
    for v in cases {
        let text = serde_json::to_string(&v).unwrap();
        let back: f64 = serde_json::from_str(&text).unwrap();
        assert_eq!(back.to_bits(), v.to_bits(), "{v:e} through {text}");
    }
    // A non-finite float has no JSON literal: plain serialization writes null.
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
}

fn point(value: f64) -> MetricRecord {
    MetricRecord {
        component: "c".into(),
        run_id: Some(RunId(4)),
        name: "m".into(),
        value,
        ts_ms: 9,
    }
}

#[test]
fn non_finite_metric_values_use_the_sentinels() {
    for (value, sentinel) in [
        (f64::NAN, "\"NaN\""),
        (f64::INFINITY, "\"+Inf\""),
        (f64::NEG_INFINITY, "\"-Inf\""),
    ] {
        let text = serde_json::to_string(&point(value)).unwrap();
        assert!(text.contains(&format!("\"value\":{sentinel}")), "{text}");
        let back: MetricRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(back.value.to_bits(), value.to_bits());
    }
    let finite = serde_json::to_string(&point(1.5)).unwrap();
    assert_eq!(
        finite,
        r#"{"component":"c","run_id":4,"name":"m","value":1.5,"ts_ms":9}"#
    );
    let legacy: MetricRecord = serde_json::from_str(
        r#"{"component":"c","run_id":null,"name":"m","value":null,"ts_ms":9}"#,
    )
    .unwrap();
    assert!(legacy.value.is_nan());
    assert!(serde_json::from_str::<MetricRecord>(&finite.replace("1.5", "\"huge\"")).is_err());
}

#[test]
fn store_and_protocol_records_round_trip() {
    let run = ComponentRunRecord {
        id: RunId(7),
        component: "etl".into(),
        start_ms: 1,
        end_ms: 2,
        inputs: vec!["a".into()],
        outputs: vec!["b".into()],
        code_hash: "h".into(),
        notes: "n".into(),
        status: RunStatus::TriggerFailed,
        dependencies: vec![RunId(3)],
        triggers: vec![TriggerOutcomeRecord {
            trigger: "t".into(),
            phase: "before".into(),
            passed: false,
            detail: "d".into(),
            values: BTreeMap::from([("k".to_string(), Value::Float(0.25))]),
        }],
        metadata: BTreeMap::from([
            ("null".to_string(), Value::Null),
            (
                "list".to_string(),
                Value::List(vec![Value::Int(1), Value::Bool(true)]),
            ),
            (
                "map".to_string(),
                Value::Map(BTreeMap::from([("s".to_string(), Value::Str("x".into()))])),
            ),
        ]),
    };
    round_trip(&run);

    let bare = ObservabilityEvent::new(EventKind::DriftScored, EventSeverity::Page, 5);
    assert!(!round_trip(&bare).contains("payload"));
    let event = bare
        .clone()
        .component("c")
        .run(RunId(2))
        .detail("d")
        .payload("score", Value::Float(0.75));
    assert!(round_trip(&event).contains("\"payload\":{\"score\":{\"t\":\"Float\",\"v\":0.75}}"));
    let minimal: ObservabilityEvent =
        serde_json::from_str(r#"{"ts_ms":5,"kind":"DriftScored","severity":"Page"}"#).unwrap();
    assert_eq!(minimal, bare);

    for request in [
        Request::Ping,
        Request::LogRuns {
            runs: vec![run.clone()],
        },
        Request::LogMetrics {
            metrics: vec![point(2.0)],
        },
        Request::LogBundles {
            bundles: vec![RunBundle {
                run: run.clone(),
                metrics: vec![point(3.0)],
                events: vec![event.clone()],
                ..RunBundle::default()
            }],
        },
        Request::Exec {
            stmt: 1,
            params: vec![Value::Str("c".into()), Value::Int(-3)],
        },
        Request::PollEvents {
            max: 10,
            wait_ms: 0,
        },
    ] {
        assert_eq!(Request::from_body(&request.to_body()).unwrap(), request);
    }
    assert_eq!(Request::Ping.to_body(), br#"{"op":"Ping"}"#);
    for response in [
        Response::Ok,
        Response::RunIds { ids: vec![1, 2] },
        Response::Rows {
            columns: vec!["a".into()],
            rows: vec![vec![Value::Null, Value::Float(1e-9)]],
        },
        Response::Events {
            events: vec![event],
            dropped: 1,
        },
        Response::error("no"),
    ] {
        assert_eq!(Response::from_body(&response.to_body()).unwrap(), response);
    }
}

#[test]
fn malformed_json_is_an_error_not_a_panic() {
    for bad in [
        "",
        "{",
        "[1,",
        "{\"a\"}",
        "{\"a\":}",
        "tru",
        "01",
        "1.",
        "-",
        "+1",
        "\"\\x\"",
        "\"\\ud800\"",
        "\"unterminated",
        "[1] 2",
        "{\"a\":1,}",
        "nul",
        "\"\u{1}\"",
        "1e",
    ] {
        assert!(
            serde_json::from_str::<serde::de::Content>(bad).is_err(),
            "accepted {bad:?}"
        );
    }
    assert!(serde_json::from_slice::<u8>(&[0xff, 0xfe]).is_err());
    assert!(serde_json::from_str::<u8>("256").is_err());
    assert!(serde_json::from_str::<u64>("-1").is_err());
    let deep = "[".repeat(100_000);
    assert!(serde_json::from_str::<serde::de::Content>(&deep).is_err());
    let escaped: String = serde_json::from_str(r#""\u00e9\ud83d\ude00\/\b\f""#).unwrap();
    assert_eq!(escaped, "é😀/\u{8}\u{c}");
    let spaced: Vec<u8> = serde_json::from_str(" [ 1 ,\n2\t] ").unwrap();
    assert_eq!(spaced, [1, 2]);
}

#[test]
fn lock_bytes_and_rand_shims_behave() {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    let lock = parking_lot::RwLock::new(1);
    {
        let _reader = lock.read();
        assert!(lock.try_write().is_none());
    }
    *lock.write() += 1;
    assert_eq!(*lock.read(), 2);
    let mutex = parking_lot::Mutex::new(vec![1]);
    mutex.lock().push(2);
    assert_eq!(*mutex.lock(), [1, 2]);

    let bytes = bytes::Bytes::copy_from_slice(b"abc");
    assert_eq!(&bytes.clone()[..], b"abc");
    assert_eq!(bytes::Bytes::from(vec![1u8, 2]).len(), 2);

    let draw = |seed| -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..8).map(|_| rng.gen_range(0..1_000)).collect()
    };
    assert_eq!(draw(1), draw(1));
    assert_ne!(draw(1), draw(2));
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..1_000 {
        assert!((5..=9).contains(&rng.gen_range(5..=9)));
        let unit: f64 = rng.gen();
        assert!((0.0..1.0).contains(&unit));
    }
    let mut deck: Vec<u32> = (0..50).collect();
    deck.shuffle(&mut rng);
    let mut sorted = deck.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    assert!(deck.choose(&mut rng).is_some());
}
