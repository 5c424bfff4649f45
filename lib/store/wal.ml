(* Append-only segmented write-ahead log over {!Media}.

   Records are opaque byte strings framed as

     magic (1 byte) | crc32 of payload (u32) | payload (u32-length-prefixed)

   in [Wire] layout, in media files [wal-NNNNNN]. Segments rotate once
   they pass [segment_size] bytes; whole segments below a checkpoint are
   garbage-collected by [gc_before]. [fsync_every] batches durability
   points: every Nth append syncs the current segment, so a crash loses
   at most N-1 records.

   Replay is *total*: it walks every live segment in order and applies
   each valid record, truncating at the first invalid one — torn tail,
   flipped bit, bad length — instead of crashing. The invalid suffix is
   physically cut from the media so subsequent appends restart from the
   last valid record. *)

let magic = 0xA6

let segment_size = 64 * 1024

let fsync_every = 8

(* CRC-32 (IEEE 802.3, reflected), table-driven. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let crc = ref 0xFFFFFFFF in
  String.iter (fun ch -> crc := table.((!crc lxor Char.code ch) land 0xFF) lxor (!crc lsr 8)) s;
  !crc lxor 0xFFFFFFFF

type t = {
  media : Media.t;
  counters : Sim.Stats.Counter.t;
  mutable seg_lo : int; (* lowest live segment *)
  mutable seg_hi : int; (* segment currently appended to *)
  mutable seg_bytes : int; (* bytes written to [seg_hi] *)
  mutable unsynced : int; (* appends since the last fsync *)
  mutable records : int; (* records appended this incarnation *)
  mutable records_synced : int; (* of those, covered by an fsync *)
  mutable bytes_appended : int;
}

let prefix = "wal-"

let segment_file i = Printf.sprintf "%s%06d" prefix i

(* Reopen against whatever segments the media already holds, so a
   restart continues appending after the surviving prefix. *)
let create media =
  let t =
    {
      media;
      counters = Sim.Stats.Counter.create ();
      seg_lo = 0;
      seg_hi = 0;
      seg_bytes = 0;
      unsynced = 0;
      records = 0;
      records_synced = 0;
      bytes_appended = 0;
    }
  in
  let live =
    List.filter_map
      (fun file ->
        if String.length file > String.length prefix
           && String.sub file 0 (String.length prefix) = prefix
        then int_of_string_opt (String.sub file (String.length prefix)
                                  (String.length file - String.length prefix))
        else None)
      (Media.files media)
  in
  (match live with
  | [] -> ()
  | idx ->
      t.seg_lo <- List.fold_left min max_int idx;
      t.seg_hi <- List.fold_left max 0 idx;
      t.seg_bytes <- Media.length media ~file:(segment_file t.seg_hi));
  t

let counters t = t.counters

let current_segment t = t.seg_hi

let records_appended t = t.records

let records_synced t = t.records_synced

let bytes_appended t = t.bytes_appended

let segment_count t = t.seg_hi - t.seg_lo + 1

let sync t =
  if t.unsynced > 0 then begin
    Media.fsync t.media ~file:(segment_file t.seg_hi);
    t.unsynced <- 0;
    t.records_synced <- t.records;
    Sim.Stats.Counter.incr t.counters "wal.fsync"
  end

let append t payload =
  let frame =
    Wire.encode ~size_hint:(String.length payload + 16) (fun b ->
        Wire.w_u8 b magic;
        Wire.w_u32 b (crc32 payload);
        Wire.w_str b payload)
  in
  if t.seg_bytes > 0 && t.seg_bytes + String.length frame > segment_size then begin
    (* Rotation syncs the finished segment: a sealed segment is always
       fully durable. *)
    Media.fsync t.media ~file:(segment_file t.seg_hi);
    t.records_synced <- t.records;
    t.seg_hi <- t.seg_hi + 1;
    t.seg_bytes <- 0;
    t.unsynced <- 0;
    Sim.Stats.Counter.incr t.counters "wal.rotate"
  end;
  Media.append t.media ~file:(segment_file t.seg_hi) frame;
  t.seg_bytes <- t.seg_bytes + String.length frame;
  t.bytes_appended <- t.bytes_appended + String.length frame;
  t.records <- t.records + 1;
  t.unsynced <- t.unsynced + 1;
  Sim.Stats.Counter.incr t.counters "wal.append";
  if t.unsynced >= fsync_every then sync t

(* Decode one frame; [Ok None] at a clean end-of-segment. *)
let decode_frame r =
  if Wire.at_end r then Ok None
  else
    match
      let m = Wire.r_u8 r in
      if m <> magic then Error `Bad_magic
      else
        let crc = Wire.r_u32 r in
        let payload = Wire.r_str r in
        if crc32 payload <> crc then Error `Bad_crc else Ok (Some payload)
    with
    | result -> result
    | exception Wire.Truncated -> Error `Truncated

let replay t ~f =
  let applied = ref 0 in
  let corrupt = ref false in
  let seg = ref t.seg_lo in
  while (not !corrupt) && !seg <= t.seg_hi do
    let file = segment_file !seg in
    (match Media.read t.media ~file with
    | None -> ()
    | Some data ->
        let r = Wire.reader data in
        let valid_end = ref 0 in
        let stop = ref false in
        while not !stop do
          match decode_frame r with
          | Ok None -> stop := true
          | Ok (Some payload) ->
              f payload;
              incr applied;
              valid_end := String.length data - Wire.remaining r
          | Error _ ->
              (* Invalid record: count it, cut the segment back to its
                 valid prefix and drop everything after — the log's
                 authoritative contents end here. *)
              corrupt := true;
              stop := true;
              Sim.Stats.Counter.incr t.counters "wal.corrupt_record";
              Media.truncate t.media ~file !valid_end;
              for later = !seg + 1 to t.seg_hi do
                Media.delete t.media ~file:(segment_file later)
              done;
              t.seg_hi <- !seg;
              t.seg_bytes <- !valid_end
        done);
    incr seg
  done;
  t.records <- !applied;
  t.records_synced <- !applied;
  t.unsynced <- 0;
  Sim.Stats.Counter.incr t.counters "wal.replay";
  !applied

(* Drop whole segments below [segment]: everything in them is covered by
   a durable checkpoint. *)
let gc_before t ~segment =
  let upto = min segment t.seg_hi in
  let dropped = ref 0 in
  while t.seg_lo < upto do
    Media.delete t.media ~file:(segment_file t.seg_lo);
    t.seg_lo <- t.seg_lo + 1;
    incr dropped
  done;
  if !dropped > 0 then Sim.Stats.Counter.incr ~by:!dropped t.counters "wal.segment_gc";
  !dropped

let reset t =
  for i = t.seg_lo to t.seg_hi do
    Media.delete t.media ~file:(segment_file i)
  done;
  t.seg_lo <- 0;
  t.seg_hi <- 0;
  t.seg_bytes <- 0;
  t.unsynced <- 0;
  t.records <- 0;
  t.records_synced <- 0
