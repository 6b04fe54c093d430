//! The cascade walker: one walk over a shard of directly cascaded tiles.
//!
//! ESAM's tiles are cascaded directly — a tile's fired spike frame is the
//! next tile's input, with no routing in between (§3.1). A whole-network
//! inference and a mesh core's share of one are therefore the same walk
//! over different tile slices: [`EsamSystem`](crate::EsamSystem) walks all
//! of its tiles as one shard, a mesh core walks its own contiguous shard.
//! Every inference path goes through the three parts here:
//!
//! * [`walk_frame`] — the sequential walk: each tile serves one frame
//!   (inject → drain → fire, [`Tile::process_frame`]) and hands its fired
//!   frame to the next;
//! * [`walk_block`] — the batch-major walk: each tile advances up to 64
//!   lanes at once ([`Tile::step_block`]), and its fired lane words *are*
//!   the next tile's block (no re-transpose);
//! * [`block_eligible`] — the per-tile guard deciding whether the block
//!   walk reproduces the sequential walk bit for bit from the shard's
//!   current state.

use esam_bits::{BitVec, FrameBlock};

use crate::error::CoreError;
use crate::tile::Tile;

/// What a [`walk_frame`] over a shard produces.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameWalk {
    /// Fired spike frame of the shard's last tile.
    pub fired: BitVec,
    /// Serve + fire cycles of each tile, in cascade order.
    pub tile_cycles: Vec<u64>,
    /// Pre-reset membrane potentials of the last tile (empty unless the
    /// readout was requested).
    pub membranes: Vec<i32>,
}

/// What a [`walk_block`] over a shard produces.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockWalk {
    /// Fired lane words of the shard's last tile.
    pub fired: FrameBlock,
    /// `tile_cycles[tile][lane]`: per-lane serve + fire cycles of each
    /// tile, in cascade order.
    pub tile_cycles: Vec<Vec<u64>>,
    /// Per-lane pre-reset membranes of the last tile,
    /// `membranes[lane * width + neuron]` (empty unless the readout was
    /// requested).
    pub membranes: Vec<i32>,
}

fn empty_shard() -> CoreError {
    CoreError::InvalidConfig("a cascade shard needs at least one tile".into())
}

/// Walks one spike frame through `tiles` in order.
///
/// With `readout`, the last tile's membrane potentials are captured
/// between its drain and its fire. With `layer_inputs`, the vector is
/// cleared and receives the frame that entered each tile (`[0]` is
/// `input`) — one clone per inter-tile frame, so the untraced hot path
/// never pays for it.
///
/// # Errors
///
/// Returns [`CoreError::InputWidthMismatch`] when `input` does not match
/// the first tile's fan-in, [`CoreError::InvalidConfig`] for an empty
/// shard, and propagates tile errors.
pub fn walk_frame(
    tiles: &mut [Tile],
    input: &BitVec,
    readout: bool,
    mut layer_inputs: Option<&mut Vec<BitVec>>,
) -> Result<FrameWalk, CoreError> {
    let last = tiles.len().checked_sub(1).ok_or_else(empty_shard)?;
    if let Some(trace) = layer_inputs.as_deref_mut() {
        trace.clear();
        trace.push(input.clone());
    }
    let mut tile_cycles = Vec::with_capacity(tiles.len());
    let mut membranes = Vec::new();
    // `None` until the first tile fires: the input is borrowed, never
    // cloned, on the untraced path.
    let mut frame: Option<BitVec> = None;
    for (index, tile) in tiles.iter_mut().enumerate() {
        let capture = (readout && index == last).then_some(&mut membranes);
        let (fired, cycles) =
            tile.process_frame_readout(frame.as_ref().unwrap_or(input), capture)?;
        tile_cycles.push(cycles);
        if index != last {
            if let Some(trace) = layer_inputs.as_deref_mut() {
                trace.push(fired.clone());
            }
        }
        frame = Some(fired);
    }
    Ok(FrameWalk {
        fired: frame.ok_or_else(empty_shard)?,
        tile_cycles,
        membranes,
    })
}

/// Walks one [`FrameBlock`] (up to 64 frames) through `tiles` in order.
///
/// Callers must have established [`block_eligible`] for the shard;
/// otherwise the per-lane results are not those of the sequential walk.
/// With `readout`, the last tile's per-lane membranes are captured.
///
/// # Errors
///
/// Returns [`CoreError::InputWidthMismatch`] when the block width does not
/// match the first tile's fan-in, [`CoreError::InvalidConfig`] for an
/// empty shard, and propagates tile errors.
pub fn walk_block(
    tiles: &mut [Tile],
    block: &FrameBlock,
    readout: bool,
) -> Result<BlockWalk, CoreError> {
    let last = tiles.len().checked_sub(1).ok_or_else(empty_shard)?;
    let lanes = block.lanes();
    let mut tile_cycles = Vec::with_capacity(tiles.len());
    let mut membranes = Vec::new();
    let mut working: Option<FrameBlock> = None;
    for (index, tile) in tiles.iter_mut().enumerate() {
        let capture = readout && index == last;
        if capture {
            membranes = vec![0i32; lanes * tile.outputs()];
        }
        let mut fired = FrameBlock::new(tile.outputs(), lanes);
        let mut cycles = vec![0u64; lanes];
        tile.step_block(
            working.as_ref().unwrap_or(block),
            &mut fired,
            &mut cycles,
            capture.then_some(membranes.as_mut_slice()),
        )?;
        tile_cycles.push(cycles);
        working = Some(fired);
    }
    Ok(BlockWalk {
        fired: working.ok_or_else(empty_shard)?,
        tile_cycles,
        membranes,
    })
}

/// Whether [`walk_block`] reproduces the sequential walk bit for bit from
/// the shard's *current* state.
///
/// Every tile needs the `EveryTimestep` reset (frames independent), no
/// self-checking reads (the block kernel reads raw packed words with no
/// per-read SECDED hook), a fully clean state (drained request register,
/// zero membranes, no pending neuron requests — all restored after every
/// frame under that reset), and membrane registers wide enough that the
/// per-cycle clamp can never engage mid-frame (`inputs ≤ min(mem_max,
/// −mem_min)`: the running sum's magnitude is bounded by the spikes
/// processed so far, so it never leaves the register range and the
/// closed-form `2·ones − spikes` is exact).
pub fn block_eligible(tiles: &[Tile]) -> bool {
    tiles.iter().all(|tile| {
        let neuron_config = tile.neurons().config();
        let clamp_guard = neuron_config.mem_max().min(-neuron_config.mem_min());
        neuron_config.reset_policy() == esam_neuron::ResetPolicy::EveryTimestep
            && !tile.integrity_mode().checks()
            && tile.inputs() as i64 <= i64::from(clamp_guard)
            && tile.is_drained()
            && !tile.neurons().spike_requests().any()
            && tile.membranes().iter().all(|&m| m == 0)
    })
}
