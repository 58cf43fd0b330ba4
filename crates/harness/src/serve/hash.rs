//! Canonical content-addressed request keys.
//!
//! The simulator is deterministic end to end, so a run's statistics are
//! a pure function of (resolved configuration, kernel identity, options,
//! system, warm-start point). Folding all of it into one 64-bit key
//! makes exact memoization sound: equal keys imply byte-identical
//! results, so the server can answer repeats from cache and collapse
//! concurrent identical requests into a single simulation.
//!
//! Two keys exist:
//!
//! * [`result_key`] — identifies a complete run, including which system
//!   governs it. The [`ResultStore`](crate::store::ResultStore) — the
//!   daemon's and every `Runner`'s — keys on this.
//! * [`prefix_key`] — identifies the warm-up prefix only (the first
//!   `warm_epochs` epochs run under the static baseline governor, which
//!   every system shares). It deliberately omits the system, so a sweep
//!   over governors reuses one memoized prefix snapshot.
//!
//! Canonicalisation rules:
//!
//! * The *resolved* configuration is folded — the one the harness's
//!   `system_setup` actually hands the engine — because several
//!   systems (static VF points, per-SM VRM, CCWS) modify it.
//! * Every [`SimOptions`] field the engine reads participates, including
//!   the wall-clock-only knobs (`max_batch_ticks`, `fast_forward`):
//!   `RunStats` *encodes* `batched_ticks`, so byte-identity of cached
//!   results requires keying on them. The ignored `threads` field is
//!   left out, so requests differing only there share one result.
//!   Exhaustive destructuring makes adding a field a compile error
//!   until it is folded or explicitly ignored.
//! * Nothing time-dependent enters the fold (the lint universe bans
//!   `SystemTime` outright in this module tree), so a key computed
//!   today matches the same request forever.

use equalizer_sim::config::GpuConfig;
use equalizer_sim::gpu::SimOptions;
use equalizer_sim::kernel::KernelSpec;
use equalizer_sim::snapshot::{fold_gpu_config, Fold};

use super::protocol::system_code;
use crate::System;

/// Domain-separation tag for [`result_key`] ("EQ-RESKEY" folded).
const RESULT_TAG: u64 = 0x4551_5245_534B_4559;
/// Domain-separation tag for [`prefix_key`] ("EQ-PREKEY" folded).
const PREFIX_TAG: u64 = 0x4551_5052_454B_4559;

fn fold_options(fold: &mut Fold, options: &SimOptions) {
    // Exhaustive destructuring: adding a SimOptions field refuses to
    // build until it is folded here.
    let SimOptions {
        max_cycles_per_invocation,
        record_epochs,
        threads: _, // ignored by the engine
        max_batch_ticks,
        fast_forward,
    } = *options;
    fold.add(max_cycles_per_invocation);
    fold.add(u64::from(record_epochs));
    fold.add(max_batch_ticks);
    // Like max_batch_ticks: results are bit-identical either way, but the
    // encoded RunStats carry `batched_ticks`, so cached bytes must key on
    // anything that can change it.
    fold.add(u64::from(fast_forward));
}

fn fold_common(
    fold: &mut Fold,
    config: &GpuConfig,
    kernel: &KernelSpec,
    options: &SimOptions,
    warm_epochs: u64,
) {
    fold_gpu_config(fold, config);
    kernel.fold_identity(fold);
    fold_options(fold, options);
    fold.add(warm_epochs);
}

/// Canonical key of a complete run: resolved configuration, kernel
/// identity, every option, the governing system and the warm-start
/// point.
pub fn result_key(
    config: &GpuConfig,
    kernel: &KernelSpec,
    options: &SimOptions,
    system: System,
    warm_epochs: u64,
) -> u64 {
    let mut fold = Fold::new(RESULT_TAG);
    fold_common(&mut fold, config, kernel, options, warm_epochs);
    let (tag, payload) = system_code(system);
    fold.add(u64::from(tag));
    fold.add(payload);
    fold.finish()
}

/// Canonical key of a warm-up prefix: everything in [`result_key`]
/// *except* the system, because the prefix runs under the shared static
/// baseline governor regardless of which system takes over afterwards.
pub fn prefix_key(
    config: &GpuConfig,
    kernel: &KernelSpec,
    options: &SimOptions,
    warm_epochs: u64,
) -> u64 {
    let mut fold = Fold::new(PREFIX_TAG);
    fold_common(&mut fold, config, kernel, options, warm_epochs);
    fold.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use equalizer_core::Mode;
    use equalizer_workloads::kernel_by_name;

    fn parts() -> (GpuConfig, KernelSpec, SimOptions) {
        (
            GpuConfig::gtx480(),
            kernel_by_name("mri-q").unwrap(),
            SimOptions::default(),
        )
    }

    #[test]
    fn keys_are_stable_and_sensitive() {
        let (config, kernel, options) = parts();
        let key = result_key(&config, &kernel, &options, System::DynCta, 0);
        assert_eq!(
            key,
            result_key(&config, &kernel, &options, System::DynCta, 0),
            "same inputs, same key"
        );

        // Every ingredient perturbs the key.
        let mut other_config = config.clone();
        other_config.num_sms += 1;
        assert_ne!(
            key,
            result_key(&other_config, &kernel, &options, System::DynCta, 0)
        );
        let other_kernel = kernel.clone().with_seed(99);
        assert_ne!(
            key,
            result_key(&config, &other_kernel, &options, System::DynCta, 0)
        );
        let other_options = SimOptions {
            max_batch_ticks: 0,
            ..options
        };
        assert_ne!(
            key,
            result_key(&config, &kernel, &other_options, System::DynCta, 0)
        );
        assert_ne!(
            key,
            result_key(
                &config,
                &kernel,
                &options,
                System::Equalizer(Mode::Energy),
                0
            )
        );
        assert_ne!(
            key,
            result_key(&config, &kernel, &options, System::DynCta, 2)
        );
    }

    #[test]
    fn keys_ignore_the_thread_count() {
        let (config, kernel, options) = parts();
        let threaded = SimOptions {
            threads: 4,
            ..options
        };
        assert_eq!(
            result_key(&config, &kernel, &options, System::DynCta, 0),
            result_key(&config, &kernel, &threaded, System::DynCta, 0)
        );
        assert_eq!(
            prefix_key(&config, &kernel, &options, 2),
            prefix_key(&config, &kernel, &threaded, 2)
        );
    }

    #[test]
    fn prefix_key_ignores_the_system_but_result_key_does_not() {
        let (config, kernel, options) = parts();
        assert_eq!(
            prefix_key(&config, &kernel, &options, 2),
            prefix_key(&config, &kernel, &options, 2)
        );
        // Two systems sweeping the same machine share a prefix…
        let a = result_key(
            &config,
            &kernel,
            &options,
            System::Equalizer(Mode::Energy),
            2,
        );
        let b = result_key(
            &config,
            &kernel,
            &options,
            System::Equalizer(Mode::Performance),
            2,
        );
        // …but never a result.
        assert_ne!(a, b);
        // And the two key families never collide on identical inputs.
        assert_ne!(
            prefix_key(&config, &kernel, &options, 2),
            result_key(&config, &kernel, &options, System::DynCta, 2)
        );
    }
}
