//! A vector transcendental whose start-up self-check disagrees with libm
//! falls back to libm on every backend, keeps libm's bits, and shows as
//! `"libm"` in `/debug/config`. The fallback is process-wide, so this test
//! has a binary of its own.

use cohortnet::snapshot::load_snapshot;
use cohortnet_serve::client::request;
use cohortnet_serve::demo::demo_bundle;
use cohortnet_serve::json::{self, Json};
use cohortnet_serve::{serve, ServerConfig};
use cohortnet_tensor::math::{self, Func};
use cohortnet_tensor::simd::supported_backends;

#[test]
fn self_check_mismatch_falls_back_to_libm_and_shows_in_debug_config() {
    let has_port = supported_backends()
        .into_iter()
        .any(|b| Func::Tanh.has_port(b));
    // A reference one bit off libm: no port can match it.
    let off_by_one_bit = |x: f32| f32::from_bits(x.tanh().to_bits() ^ 1);
    assert_eq!(
        math::self_check_against(Func::Tanh, off_by_one_bit),
        !has_port,
        "a port passed a check against a wrong reference"
    );
    assert_eq!(Func::Tanh.path(), "libm");

    let xs: Vec<f32> = (0..37).map(|i| i as f32 * 0.31 - 6.0).collect();
    let mut got = xs.clone();
    math::tanh(&mut got);
    for (g, x) in got.iter().zip(&xs) {
        assert_eq!(g.to_bits(), x.tanh().to_bits(), "fallback tanh({x})");
    }

    let server = serve(
        load_snapshot(&demo_bundle().snapshot).expect("demo snapshot loads"),
        ServerConfig {
            port: 0,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let resp = request(server.addr(), "GET", "/debug/config", "").expect("debug config");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let parsed = json::parse(&resp.body).expect("debug config parses");
    let paths = parsed.get("transcendentals").expect("transcendentals key");
    assert_eq!(paths.get("tanh").and_then(Json::as_str), Some("libm"));
    assert_eq!(
        paths.get("exp").and_then(Json::as_str),
        Some(Func::Exp.path())
    );
    server.shutdown();
}
