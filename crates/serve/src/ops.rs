//! Execution of typed session operations.
//!
//! The split matters for the determinism contract: everything that
//! *computes* — [`execute_query`] and the canonical result builders —
//! is shared between the server's worker pool and the single-threaded
//! reference executor in [`crate::workload`], so the two can only
//! disagree if the registry layer (scheduling, eviction, restore)
//! changes an answer. That is exactly what the replay integration test
//! is allowed to catch.
//!
//! Lifecycle ops (`create`, `load`, `snapshot`, `evict`) touch session
//! *placement*, which the two executors implement differently (files
//! and eviction vs. keep-everything-resident); their response bodies
//! come from the shared builders here so the envelopes still compare
//! equal.
//!
//! Parsing does not live here: requests arrive as typed
//! [`sp_wire::Request`] values, decoded by the binary codec.

use sp_core::{BackendMode, GameSession, LinkSet, SocialCost};
use sp_dynamics::{run_config_on_session, DynamicsConfig, ResponseRule};

use crate::spec;
use crate::wire::{
    DynamicsBody, DynamicsRule, DynamicsSpec, ErrorCode, GameSpec, ResultBody, SessionOp,
    SocialCostBody, WireError,
};

/// Applies the service-wide session tuning: single-threaded refills
/// (concurrency comes from the worker pool multiplexing sessions, and
/// nested fan-out would oversubscribe the host). Used on both freshly
/// created and restored sessions, and by the reference executor, so
/// tuning can never cause divergence.
pub fn tune_for_service(session: &mut GameSession) {
    session.set_parallelism(Some(1));
}

/// Resolves a wire-level dynamics spec against the engine defaults
/// (traces off — the service never ships them).
#[must_use]
pub fn dynamics_config(spec: &DynamicsSpec) -> DynamicsConfig {
    let mut config = DynamicsConfig {
        record_trace: false,
        ..DynamicsConfig::default()
    };
    config.rule = match spec.rule {
        DynamicsRule::Better => ResponseRule::BetterResponse,
        DynamicsRule::Best(method) => ResponseRule::BestResponseWith(method),
    };
    if let Some(r) = spec.max_rounds {
        config.max_rounds = r;
    }
    if let Some(t) = spec.tolerance {
        config.tolerance = t;
    }
    if let Some(d) = spec.detect_cycles {
        config.detect_cycles = d;
    }
    config
}

fn core_err(e: impl std::fmt::Display) -> WireError {
    WireError::new(ErrorCode::Core, e.to_string())
}

/// Builds a fresh session from a typed `create` spec, tuned via
/// [`tune_for_service`].
///
/// # Errors
///
/// Spec problems come back as [`ErrorCode::BadSpec`], engine rejections
/// as [`ErrorCode::Core`].
pub fn build_session(spec: &GameSpec) -> Result<GameSession, WireError> {
    let (game, profile) = spec::build(spec)?;
    let mut session = match spec.mode {
        BackendMode::Dense => GameSession::new(game, profile),
        BackendMode::Sparse => GameSession::new_sparse(game, profile),
    }
    .map_err(core_err)?;
    tune_for_service(&mut session);
    Ok(session)
}

fn links_vec(links: &LinkSet) -> Vec<usize> {
    links.iter().map(|t| t.index()).collect()
}

fn social_cost_body(sc: &SocialCost) -> SocialCostBody {
    SocialCostBody {
        link_cost: sc.link_cost,
        stretch_cost: sc.stretch_cost,
        total: sc.total(),
    }
}

/// The canonical `create` result body.
#[must_use]
pub fn create_result(session: &GameSession) -> ResultBody {
    ResultBody::Created {
        n: session.n(),
        alpha: session.game().alpha(),
        links: session.profile().link_count(),
        mode: session.backend_mode(),
    }
}

/// The canonical `load` result body.
#[must_use]
pub fn loaded_result(session: &GameSession) -> ResultBody {
    ResultBody::Loaded {
        mode: session.backend_mode(),
    }
}

/// Executes a **query or mutation** op against a resident session and
/// returns its typed result body. Lifecycle ops (`create`/`load`/
/// `snapshot`/`evict`) are placement decisions and must be handled by
/// the caller; passing one here is an error.
///
/// # Errors
///
/// Engine rejections come back as [`ErrorCode::Core`] with the engine's
/// display string as the message.
pub fn execute_query(op: &SessionOp, session: &mut GameSession) -> Result<ResultBody, WireError> {
    match op {
        SessionOp::Apply { mv } => {
            let previous = session.apply(mv.clone()).map_err(core_err)?;
            Ok(ResultBody::Applied {
                previous: links_vec(&previous),
            })
        }
        SessionOp::ApplyBatch { moves } => {
            let previous = session.apply_batch(moves).map_err(core_err)?;
            Ok(ResultBody::BatchApplied {
                previous: previous.iter().map(links_vec).collect(),
            })
        }
        SessionOp::BestResponse { peer, method } => {
            let br = session.best_response(*peer, *method).map_err(core_err)?;
            Ok(ResultBody::BestResponse(crate::wire::BestResponseBody {
                peer: br.peer.index(),
                links: links_vec(&br.links),
                cost: br.cost,
                current_cost: br.current_cost,
                exact: br.exact,
            }))
        }
        SessionOp::NashGap { method } => {
            let gap = session.nash_gap(*method).map_err(core_err)?;
            Ok(ResultBody::NashGap { gap })
        }
        SessionOp::SocialCost => Ok(ResultBody::SocialCost(social_cost_body(
            &session.social_cost(),
        ))),
        SessionOp::Stretch => Ok(ResultBody::Stretch {
            max_stretch: session.max_stretch(),
        }),
        SessionOp::RunDynamics(spec) => {
            if session.n() == 0 {
                return Err(WireError::new(
                    ErrorCode::Core,
                    "cannot run dynamics on an empty game",
                ));
            }
            let out = run_config_on_session(dynamics_config(spec), session);
            let after = session.social_cost();
            Ok(ResultBody::Dynamics(DynamicsBody {
                termination: out.termination,
                steps: out.steps,
                moves: out.moves,
                social_cost: social_cost_body(&after),
            }))
        }
        SessionOp::Create(_)
        | SessionOp::Load
        | SessionOp::Snapshot
        | SessionOp::Evict
        | SessionOp::WalHead
        | SessionOp::WalVerify => Err(WireError::new(
            ErrorCode::BadRequest,
            "lifecycle op reached execute_query",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Geometry;
    use sp_core::{BestResponseMethod, Move, PeerId};

    #[test]
    fn executes_a_round_trip() {
        let mut session = build_session(&GameSpec {
            alpha: 1.0,
            geometry: Geometry::Line(vec![0.0, 1.0, 3.0]),
            links: vec![(0, 1), (1, 0), (1, 2), (2, 1)],
            mode: BackendMode::Dense,
        })
        .unwrap();
        let ResultBody::Created { n, .. } = create_result(&session) else {
            panic!("expected created body")
        };
        assert_eq!(n, 3);

        let apply = SessionOp::Apply {
            mv: Move::AddLink {
                from: PeerId::new(0),
                to: PeerId::new(2),
            },
        };
        let ResultBody::Applied { previous } = execute_query(&apply, &mut session).unwrap() else {
            panic!("expected applied body")
        };
        assert_eq!(previous.len(), 1);

        let ResultBody::SocialCost(sc) =
            execute_query(&SessionOp::SocialCost, &mut session).unwrap()
        else {
            panic!("expected social cost body")
        };
        assert!(sc.total > 0.0);

        let br = SessionOp::BestResponse {
            peer: PeerId::new(2),
            method: BestResponseMethod::Exact,
        };
        let ResultBody::BestResponse(br) = execute_query(&br, &mut session).unwrap() else {
            panic!("expected best response body")
        };
        assert_eq!(br.peer, 2);
        assert!(br.exact);

        let dyn_op = SessionOp::RunDynamics(DynamicsSpec {
            rule: DynamicsRule::Better,
            max_rounds: Some(3),
            tolerance: None,
            detect_cycles: None,
        });
        let ResultBody::Dynamics(d) = execute_query(&dyn_op, &mut session).unwrap() else {
            panic!("expected dynamics body")
        };
        assert!(d.steps >= d.moves);
    }

    #[test]
    fn dynamics_spec_resolves_against_engine_defaults() {
        let resolved = dynamics_config(&DynamicsSpec {
            rule: DynamicsRule::Better,
            max_rounds: Some(1),
            tolerance: None,
            detect_cycles: Some(false),
        });
        assert!(matches!(resolved.rule, ResponseRule::BetterResponse));
        assert_eq!(resolved.max_rounds, 1);
        assert!(!resolved.detect_cycles);
        assert!(!resolved.record_trace);
        // Unset fields inherit the engine default.
        assert_eq!(resolved.tolerance, DynamicsConfig::default().tolerance);
    }

    #[test]
    fn lifecycle_ops_cannot_reach_execute_query() {
        let mut session = build_session(&GameSpec {
            alpha: 1.0,
            geometry: Geometry::Line(vec![0.0, 1.0]),
            links: Vec::new(),
            mode: BackendMode::Dense,
        })
        .unwrap();
        let e = execute_query(&SessionOp::Evict, &mut session).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
    }
}
