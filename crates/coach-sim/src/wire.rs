//! [`coach_wire`] codecs for experiment configuration.
//!
//! [`PolicyConfig`] carries a `&'static str` label, so it cannot be
//! decoded from arbitrary bytes directly — the codec ships the label as a
//! string and re-interns it against the paper's four labels
//! ([`PolicyConfig::paper_set`]) on decode. A label outside that set is a
//! [`WireError::UnknownTag`]: a snapshot only ever carries the paper
//! policies.

use coach_wire::{Decode, Decoder, Encode, Encoder, WireError};

use crate::packing::PolicyConfig;
use crate::probe::ProbeMode;

/// The paper's four policy labels (Fig 20), the only ones that exist on
/// the wire.
const LABELS: [&str; 4] = ["None", "Single", "Coach", "Aggr Coach"];

/// Re-intern a decoded label against [`LABELS`].
fn intern_label(label: &str) -> Result<&'static str, WireError> {
    LABELS
        .iter()
        .find(|l| **l == label)
        .copied()
        .ok_or(WireError::UnknownTag {
            context: "policy label",
            tag: label.len() as u64,
        })
}

impl Encode for PolicyConfig {
    fn encode(&self, e: &mut Encoder) {
        e.str(self.label);
        self.policy.encode(e);
        self.percentile.encode(e);
    }
}

impl Decode for PolicyConfig {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        let label = intern_label(d.str("PolicyConfig label")?)?;
        Ok(PolicyConfig {
            label,
            policy: Decode::decode(d)?,
            percentile: Decode::decode(d)?,
        })
    }
}

impl Encode for ProbeMode {
    fn encode(&self, e: &mut Encoder) {
        e.u8(match self {
            ProbeMode::Exhaustive => 0,
            ProbeMode::Estimated => 1,
            ProbeMode::Differential => 2,
        });
    }
}

impl Decode for ProbeMode {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, WireError> {
        match d.u8("ProbeMode")? {
            0 => Ok(ProbeMode::Exhaustive),
            1 => Ok(ProbeMode::Estimated),
            2 => Ok(ProbeMode::Differential),
            tag => Err(WireError::UnknownTag {
                context: "ProbeMode",
                tag: tag as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coach_wire::{open_frame, seal_frame};

    #[test]
    fn policy_configs_roundtrip_with_interned_labels() {
        for cfg in PolicyConfig::paper_set() {
            let frame = seal_frame(&cfg);
            let back: PolicyConfig = open_frame(&frame).expect("decode PolicyConfig");
            assert_eq!(back, cfg);
            // The decoded label is re-interned, so pointer identity with the
            // paper set's literal is preserved for downstream `&'static str`.
            assert!(std::ptr::eq(back.label, cfg.label) || back.label == cfg.label);
        }
    }

    #[test]
    fn foreign_label_is_rejected() {
        let mut e = coach_wire::Encoder::new();
        e.str("Bespoke");
        let mut frame = Vec::from(coach_wire::MAGIC);
        frame.extend_from_slice(&coach_wire::VERSION.to_le_bytes());
        frame.extend_from_slice(&e.into_bytes());
        assert!(matches!(
            open_frame::<PolicyConfig>(&frame),
            Err(WireError::UnknownTag { .. })
        ));
    }
}
