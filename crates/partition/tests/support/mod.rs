//! Test support shared by this crate's unit tests and the workspace's
//! integration tests (both include the file with `#[path]`, so the
//! partitioner types come from whatever the including module imported).

use super::{Algorithm, PartitionerConfig, Partitioning, StreamInput, StreamingPartitioner};
use sgp_graph::{EdgeStreamSource, Graph, StreamOrder, VertexStreamSource};

/// Drives the [`StreamingPartitioner`] facade by hand, the way an
/// external ingestion pipeline would: every pass of the stream in
/// `chunk`-sized chunks, the look-ahead window flushed at each pass
/// boundary, then the seal. `at_chunk` runs after each ingested chunk
/// with the machine and the number of chunks fed so far (once, with 0,
/// for the offline baseline) — the snapshot tests interrupt the run
/// there.
pub fn drive_facade<'g>(
    g: &'g Graph,
    alg: Algorithm,
    cfg: &PartitionerConfig,
    order: StreamOrder,
    chunk: usize,
    mut at_chunk: impl FnMut(&mut StreamingPartitioner<'g>, usize),
) -> Partitioning {
    let mut sp = StreamingPartitioner::init(g, alg, cfg);
    let mut fed = 0usize;
    match sp.input() {
        StreamInput::Vertices => {
            let mut source = VertexStreamSource::new(g, order);
            let mut buf = Vec::new();
            for _ in 0..sp.passes() {
                source.restart();
                while source.next_chunk(chunk, &mut buf) > 0 {
                    sp.ingest_vertices(&buf).expect("vertex machine accepts vertex chunks");
                    fed += 1;
                    at_chunk(&mut sp, fed);
                }
                sp.flush_window();
            }
        }
        StreamInput::Edges => {
            let mut source = EdgeStreamSource::new(g, order);
            let mut buf = Vec::new();
            for _ in 0..sp.passes() {
                source.restart();
                while source.next_slotted_chunk(chunk, &mut buf) > 0 {
                    sp.ingest_slotted_edges(&buf).expect("edge machine accepts edge chunks");
                    fed += 1;
                    at_chunk(&mut sp, fed);
                }
                sp.flush_window();
            }
        }
        StreamInput::Offline => at_chunk(&mut sp, 0),
    }
    sp.seal()
}

/// [`drive_facade`] uninterrupted.
pub fn facade_run(
    g: &Graph,
    alg: Algorithm,
    cfg: &PartitionerConfig,
    order: StreamOrder,
    chunk: usize,
) -> Partitioning {
    drive_facade(g, alg, cfg, order, chunk, |_, _| ())
}
