//! Subcommand implementations.

pub mod dynamic;
pub mod execute;
pub mod form;
pub mod game;
pub mod generate;
pub mod request;
pub mod serve;
pub mod solve;
pub mod stats;

use crate::args::Flags;
use gridvo_core::FormationScenario;
use gridvo_service::MechanismKind;

/// Load a scenario JSON file.
pub(crate) fn load_scenario(path: &str) -> Result<FormationScenario, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read scenario {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("invalid scenario JSON in {path}: {e}"))
}

/// The `--mechanism tvof|rvof` flag; tvof when absent.
pub(crate) fn mechanism(flags: &Flags) -> Result<MechanismKind, String> {
    let name = flags.get("mechanism").unwrap_or("tvof");
    MechanismKind::parse(name).ok_or_else(|| format!("unknown mechanism {name:?} (tvof|rvof)"))
}

/// Write pretty JSON to a file, echoing the path.
pub(crate) fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    outln!("wrote {path}");
    Ok(())
}
