//! Evaluate the paper's proposed defenses (§8.1) against one audit run:
//!
//! * a router **firewall** that blocks advertising & tracking endpoints;
//! * **on-device transcription** (text-only voice channel).
//!
//! Both defenses are per-packet rules at the capture tap, so each defended
//! record is evaluated as a view over the baseline's analysis index — the
//! same numbers a re-executed defended audit shows.
//!
//! ```sh
//! cargo run --release --example defenses
//! ```

use alexa_audit::analysis::defense;
use alexa_audit::{AnalysisIndex, AuditConfig, AuditRun, DefenseMode};

fn main() {
    let seed = 42;
    println!("Running baseline audit (seed {seed}) ...\n");
    let baseline = AuditRun::execute(AuditConfig::small(seed));
    let ix = AnalysisIndex::build(&baseline);
    let [base, firewalled, text_only] = defense::views(
        &ix,
        [
            DefenseMode::None,
            DefenseMode::Firewall,
            DefenseMode::TextOnly,
        ],
    );

    println!(
        "{}",
        defense::compare("A&T firewall (blocking without breaking)", base, firewalled).render()
    );
    println!(
        "{}",
        defense::compare("on-device transcription (text-only)", base, text_only).render()
    );

    println!(
        "Takeaway: both defenses remove their target observable (tracker traffic;\n\
         raw voice recordings) without breaking skill functionality — but neither\n\
         touches the bid uplift, because interest inference happens server-side\n\
         from content the platform necessarily receives. Transparency and control\n\
         at the platform level remain necessary, as the paper argues."
    );
}
