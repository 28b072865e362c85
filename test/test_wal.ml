(* Tests for the observe journal (Store.Wal): framed append/fold
   round-trips, torn-tail recovery on open, mid-log corruption
   detection, segment rotation + retention pruning, and a
   kill-mid-append crash-safety loop in the test_store style. *)

module Wal = Store.Wal

let dir_counter = ref 0

(* a fresh, not-yet-existing directory; Wal.open_ creates it *)
let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "pathsel-wal-test-%d-%d" (Unix.getpid ()) !dir_counter)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let get_ok label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (Core.Errors.to_string e)

let open_wal ?config dir = get_ok "open_" (Wal.open_ ?config dir)

(* replay the whole dir into [(seq, payload)] order plus the high-water
   mark, via the public fold *)
let replay ?from_seq dir =
  let acc, high =
    get_ok "fold"
      (Wal.fold ?from_seq dir ~init:[] ~f:(fun acc ~seq payload ->
           (seq, payload) :: acc))
  in
  (List.rev acc, high)

let segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f > 4 && String.sub f 0 4 = "wal-")
  |> List.sort String.compare

(* deterministic payload for sequence number [i]; includes raw binary
   bytes so framing is exercised beyond printable text, and is ~1.1 KB
   so a handful of records fills a minimum-size (4 KiB) segment *)
let payload i =
  let head = Printf.sprintf "rec-%d-%c%c-" i (Char.chr (i mod 256)) (Char.chr 0) in
  head ^ String.init 1100 (fun j -> Char.chr ((i + j) mod 256))

let check_replay label dir ~upto =
  let records, high = replay dir in
  Alcotest.(check int) (label ^ ": high-water mark") upto high;
  Alcotest.(check int) (label ^ ": record count") upto (List.length records);
  List.iteri
    (fun i (seq, p) ->
      Alcotest.(check int) (label ^ ": seq order") (i + 1) seq;
      Alcotest.(check string) (label ^ ": payload") (payload seq) p)
    records

(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let t = open_wal dir in
  Alcotest.(check int) "seqs start at 1" 1 (Wal.next_seq t);
  let records, high = replay dir in
  Alcotest.(check int) "empty log high" 0 high;
  Alcotest.(check int) "empty log records" 0 (List.length records);
  let last = get_ok "append" (Wal.append t [ payload 1; payload 2 ]) in
  Alcotest.(check int) "append returns last seq" 2 last;
  let last = get_ok "append" (Wal.append t [ payload 3 ]) in
  Alcotest.(check int) "seqs are consecutive" 3 last;
  Alcotest.(check int) "next_seq advances" 4 (Wal.next_seq t);
  Wal.close t;
  check_replay "after close" dir ~upto:3;
  (* from_seq skips the prefix without breaking the high-water mark *)
  let tail, high = replay ~from_seq:3 dir in
  Alcotest.(check int) "from_seq high" 3 high;
  Alcotest.(check (list (pair int string)))
    "from_seq suffix"
    [ (3, payload 3) ]
    tail;
  (* reopen continues the sequence *)
  let t = open_wal dir in
  Alcotest.(check int) "reopen next_seq" 4 (Wal.next_seq t);
  ignore (get_ok "append" (Wal.append t [ payload 4 ]));
  Wal.close t;
  check_replay "after reopen" dir ~upto:4

let test_append_validation () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let t = open_wal dir in
  Fun.protect ~finally:(fun () -> Wal.close t) @@ fun () ->
  Alcotest.check_raises "empty batch rejected"
    (Invalid_argument "Wal.append: empty batch") (fun () ->
      ignore (Wal.append t []))

(* ------------------------------------------------------------------ *)
(* Torn tails: every way a crash can mangle the *last* segment must
   recover to the intact prefix — open_ truncates, fold ends silently,
   and the log accepts further appends at the right sequence number. *)

(* build a 3-record single-segment log, damage it, then check both
   read paths and that writing resumes *)
let torn_tail_case label damage =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let t = open_wal dir in
  ignore (get_ok "append" (Wal.append t [ payload 1; payload 2; payload 3 ]));
  Wal.close t;
  let seg =
    match segments dir with
    | [ s ] -> Filename.concat dir s
    | ss -> Alcotest.failf "%s: expected 1 segment, got %d" label (List.length ss)
  in
  let pristine = In_channel.with_open_bin seg In_channel.input_all in
  let intact = damage ~seg ~pristine in
  (* fold without open_: torn tail in the last segment ends silently *)
  check_replay (label ^ " (fold)") dir ~upto:intact;
  (* open_ physically truncates and positions next_seq after the
     prefix; appends land where the lost records were *)
  let t = open_wal dir in
  Alcotest.(check int) (label ^ ": recovered next_seq") (intact + 1)
    (Wal.next_seq t);
  for i = intact + 1 to 3 do
    ignore (get_ok "append" (Wal.append t [ payload i ]))
  done;
  Wal.close t;
  check_replay (label ^ " (rewritten)") dir ~upto:3

(* byte offset where record [i] (0-based) starts: each frame is
   8 header + 8 seq + payload *)
let frame_start pristine i =
  let off = ref 0 in
  for _ = 1 to i do
    let len =
      Char.code pristine.[!off]
      lor (Char.code pristine.[!off + 1] lsl 8)
      lor (Char.code pristine.[!off + 2] lsl 16)
    in
    off := !off + 8 + len
  done;
  !off

let truncate_to ~seg ~pristine n =
  Out_channel.with_open_bin seg (fun oc ->
      Out_channel.output_string oc (String.sub pristine 0 n))

let test_torn_tails () =
  (* cut mid-way through the last frame's length field *)
  torn_tail_case "torn length field" (fun ~seg ~pristine ->
      truncate_to ~seg ~pristine (frame_start pristine 2 + 2);
      2);
  (* cut inside the last frame's CRC *)
  torn_tail_case "torn crc" (fun ~seg ~pristine ->
      truncate_to ~seg ~pristine (frame_start pristine 2 + 6);
      2);
  (* cut inside the last payload *)
  torn_tail_case "torn payload" (fun ~seg ~pristine ->
      truncate_to ~seg ~pristine (String.length pristine - 1);
      2);
  (* the whole last record gone: a clean shorter log *)
  torn_tail_case "missing last record" (fun ~seg ~pristine ->
      truncate_to ~seg ~pristine (frame_start pristine 2);
      2);
  (* a flipped payload byte fails the CRC: the record and everything
     after it (nothing here) are dropped *)
  torn_tail_case "payload bit flip" (fun ~seg ~pristine ->
      let b = Bytes.of_string pristine in
      let off = frame_start pristine 2 + 16 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
      Out_channel.with_open_bin seg (fun oc ->
          Out_channel.output_bytes oc b);
      2);
  (* a flipped CRC byte likewise *)
  torn_tail_case "crc bit flip" (fun ~seg ~pristine ->
      let b = Bytes.of_string pristine in
      let off = frame_start pristine 2 + 4 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
      Out_channel.with_open_bin seg (fun oc ->
          Out_channel.output_bytes oc b);
      2);
  (* trailing garbage after the last intact record reads as a torn
     frame, not as data *)
  torn_tail_case "trailing garbage" (fun ~seg ~pristine ->
      Out_channel.with_open_bin seg (fun oc ->
          Out_channel.output_string oc pristine;
          Out_channel.output_string oc "\xff\xff\xff\xff junk");
      3)

(* corruption that is NOT a crash tail — a bad frame in a sealed
   segment — is data loss and must be reported, not skipped. Two
   inputs: a flipped payload byte deep inside the FIRST (sealed)
   segment, and that segment emptied to zero bytes, which leaves no
   torn frame to report but makes the next segment's base a sequence
   gap *)
let test_midlog_corruption () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config = { Wal.segment_bytes = 4096; retain_segments = 0 } in
  let t = open_wal ~config dir in
  for i = 1 to 12 do
    ignore (get_ok "append" (Wal.append t [ payload i ]))
  done;
  Wal.close t;
  let segs = segments dir in
  if List.length segs < 2 then
    Alcotest.failf "rotation produced %d segments" (List.length segs);
  let first = Filename.concat dir (List.hd segs) in
  let pristine = In_channel.with_open_bin first In_channel.input_all in
  let flipped =
    let b = Bytes.of_string pristine in
    Bytes.set b 17 (Char.chr (Char.code (Bytes.get b 17) lxor 0x10));
    Bytes.to_string b
  in
  List.iter
    (fun (label, damaged) ->
      Out_channel.with_open_bin first (fun oc -> Out_channel.output_string oc damaged);
      match Wal.fold dir ~init:0 ~f:(fun acc ~seq:_ _ -> acc + 1) with
      | Ok (n, high) ->
        Alcotest.failf "%s: replayed as %d records (high %d)" label n high
      | Error (Core.Errors.Corrupt_artifact _ as e) ->
        Alcotest.(check int) (label ^ ": sysexits data code") 65
          (Core.Errors.exit_code e)
      | Error e ->
        Alcotest.failf "%s: expected Corrupt_artifact, got %s" label
          (Core.Errors.to_string e))
    [ ("flipped payload byte", flipped); ("emptied first segment", "") ]

(* ------------------------------------------------------------------ *)
(* Rotation and retention *)

let test_rotation_and_prune () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config = { Wal.segment_bytes = 4096; retain_segments = 1 } in
  let t = open_wal ~config dir in
  for i = 1 to 20 do
    ignore (get_ok "append" (Wal.append t [ payload i ]))
  done;
  let n_segs = List.length (segments dir) in
  if n_segs < 4 then Alcotest.failf "expected >= 4 segments, got %d" n_segs;
  (* replay spans every segment, in order *)
  check_replay "multi-segment replay" dir ~upto:20;
  (* a checkpoint at the high-water mark covers every sealed segment;
     prune keeps the active one plus retain_segments as safety *)
  let deleted = get_ok "prune" (Wal.prune t ~upto_seq:20) in
  Alcotest.(check int) "segments deleted" (n_segs - 2) deleted;
  Alcotest.(check int) "segments kept" 2 (List.length (segments dir));
  (* pruning again is a no-op *)
  Alcotest.(check int) "prune idempotent" 0
    (get_ok "prune" (Wal.prune t ~upto_seq:20));
  (* the surviving suffix still replays cleanly and keeps its seqs *)
  let records, high = replay dir in
  Alcotest.(check int) "suffix high" 20 high;
  (match records with
   | (first_seq, p) :: _ ->
     Alcotest.(check bool) "suffix starts past the pruned prefix" true
       (first_seq > 1);
     Alcotest.(check string) "suffix payload" (payload first_seq) p
   | [] -> Alcotest.fail "pruned log lost its suffix");
  (* writing continues across the prune *)
  ignore (get_ok "append" (Wal.append t [ payload 21 ]));
  Wal.close t;
  let _, high = replay dir in
  Alcotest.(check int) "post-prune append" 21 high;
  (* a checkpoint below the sealed segments deletes nothing *)
  let t = open_wal ~config dir in
  (match records with
   | (first_seq, _) :: _ ->
     Alcotest.(check int) "uncovered segments survive" 0
       (get_ok "prune" (Wal.prune t ~upto_seq:(first_seq - 1)))
   | [] -> ());
  Wal.close t

(* ------------------------------------------------------------------ *)
(* Crash safety: children are SIGKILLed at staggered points while
   appending; after every kill the log must open to a contiguous,
   CRC-clean prefix whose payloads match their sequence numbers, and
   keep accepting appends. Small segments so kills also land around
   rotation boundaries. *)

let test_kill_mid_append () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config = { Wal.segment_bytes = 4096; retain_segments = 1 } in
  let t = open_wal ~config dir in
  ignore (get_ok "append" (Wal.append t [ payload 1; payload 2 ]));
  Wal.close t;
  for i = 0 to 19 do
    Kill_child.run ~delay:(float_of_int (i mod 7) *. 0.0004) (fun () ->
        match Wal.open_ ~config dir with
        | Error e -> Core.Errors.raise_error e
        | Ok t ->
          let rec spin () =
            let first = Wal.next_seq t in
            ignore (Wal.append t (List.init 3 (fun j -> payload (first + j))));
            spin ()
          in
          spin ());
    (* recovery invariant: an intact, contiguous, content-correct
       prefix — fold itself rejects gaps and bad CRCs *)
    let records, high = replay dir in
    Alcotest.(check int)
      (Printf.sprintf "iter %d: contiguous prefix" i)
      high (List.length records);
    List.iteri
      (fun j (seq, p) ->
        Alcotest.(check int) "seq" (j + 1) seq;
        Alcotest.(check string) "payload" (payload seq) p)
      records
  done;
  (* the survivor is append-clean *)
  let t = open_wal ~config dir in
  let first = Wal.next_seq t in
  ignore (get_ok "append" (Wal.append t [ payload first ]));
  Wal.close t;
  let _, high = replay dir in
  Alcotest.(check int) "final append lands" first high

(* a segment framed by hand around the bitwise CRC (u32 length, u32
   CRC, u64 sequence number, payload) is the bytes [append] writes, and
   replays *)
let test_bitwise_framed_segment () =
  let frame seq =
    let body = Bytes.create 8 in
    Bytes.set_int64_le body 0 (Int64.of_int seq);
    let body = Bytes.to_string body ^ payload seq in
    let b = Buffer.create 16 in
    Buffer.add_int32_le b (Int32.of_int (String.length body));
    Buffer.add_int32_le b (Int32.of_int (Test_store.bitwise_crc32 body));
    Buffer.contents b ^ body
  in
  let by_hand = String.concat "" (List.init 3 (fun i -> frame (i + 1))) in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let t = open_wal dir in
  ignore (get_ok "append" (Wal.append t [ payload 1; payload 2 ]));
  ignore (get_ok "append" (Wal.append t [ payload 3 ]));
  Wal.close t;
  let file = Filename.concat dir (List.hd (segments dir)) in
  Alcotest.(check bool) "same bytes as append" true
    (String.equal by_hand (Core.Errors.get_ok (Core.Errors.read_file file)));
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc by_hand);
  check_replay "hand-framed" dir ~upto:3

(* ------------------------------------------------------------------ *)
(* Mutation fuzz over a rotated journal: truncate, flip, splice and
   inflate-length mutations, one damaged segment per case under a fixed
   seed. Whatever the damage, [fold] replays a byte-identical prefix of
   the appended payloads or returns a typed error, and [open_] returns
   a handle or a typed error; neither raises. When the damaged journal
   replays, [open_] resumes the sequence right after the replayed
   prefix and leaves that prefix as it was. *)

let test_mutation_fuzz () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config = { Wal.segment_bytes = 4096; retain_segments = 1 } in
  let n = 14 in
  let t = open_wal ~config dir in
  for i = 1 to n do
    ignore (get_ok "append" (Wal.append t [ payload i ]))
  done;
  Wal.close t;
  let names = Array.of_list (segments dir) in
  if Array.length names < 3 then
    Alcotest.failf "rotation produced %d segments" (Array.length names);
  let path name = Filename.concat dir name in
  let pristine =
    Array.map (fun name -> In_channel.with_open_bin (path name) In_channel.input_all) names
  in
  let st = Random.State.make [| 24 |] in
  (* where the frames of [s] start, read off their length fields *)
  let frame_starts s =
    let rec go off acc =
      if off + 4 > String.length s then Array.of_list (List.rev acc)
      else go (off + 8 + (Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF)) (off :: acc)
    in
    go 0 []
  in
  (* [s] is an intact segment of at least one frame *)
  let mutate i s =
    let len = String.length s in
    let frame () =
      let starts = frame_starts s in
      starts.(Random.State.int st (Array.length starts))
    in
    (* half the cuts land on a frame boundary: a clean, shorter segment *)
    let cut () =
      if Random.State.bool st then frame () else Random.State.int st (len + 1)
    in
    match i mod 4 with
    | 0 -> String.sub s 0 (cut ())
    | 1 ->
      let b = Bytes.of_string s in
      let p = Random.State.int st len in
      let mask = 1 + Random.State.int st 255 in
      Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor mask));
      Bytes.to_string b
    | 2 ->
      let other = pristine.(Random.State.int st (Array.length pristine)) in
      let j = Random.State.int st (String.length other + 1) in
      String.sub s 0 (cut ()) ^ String.sub other j (String.length other - j)
    | _ ->
      (* a frame's length field, or any u32, grown: by one, by up to a
         megabyte, to 2^30 or to the u32 maximum *)
      let b = Bytes.of_string s in
      let p = if Random.State.bool st then frame () else Random.State.int st (len - 3) in
      let v = Int32.to_int (Bytes.get_int32_le b p) land 0xFFFFFFFF in
      let v' =
        match Random.State.int st 4 with
        | 0 -> v + 1
        | 1 -> v + 1 + Random.State.int st (1 lsl 20)
        | 2 -> 0x40000000
        | _ -> 0xFFFFFFFF
      in
      Bytes.set_int32_le b p (Int32.of_int (v' land 0xFFFFFFFF));
      Bytes.to_string b
  in
  (* [Some high] for a replay that is the prefix [1..high], [None] for a
     typed error; anything else fails the case *)
  let replayed label i =
    match
      Wal.fold dir ~init:[] ~f:(fun acc ~seq payload -> (seq, payload) :: acc)
    with
    | exception e ->
      Alcotest.failf "case %d: %s raised %s" i label (Printexc.to_string e)
    | Error (_ : Core.Errors.t) -> None
    | Ok (acc, high) ->
      let records = List.rev acc in
      List.iteri
        (fun j (seq, p) ->
          if seq <> j + 1 || not (String.equal p (payload seq)) then
            Alcotest.failf "case %d: %s replayed record %d out of the prefix" i
              label seq)
        records;
      if high <> List.length records then
        Alcotest.failf "case %d: %s reports high %d after %d records" i label
          high (List.length records);
      Some high
  in
  for i = 0 to 1999 do
    let k = Random.State.int st (Array.length names) in
    Array.iteri
      (fun j name ->
        Out_channel.with_open_bin (path name) (fun oc ->
            Out_channel.output_string oc
              (if j = k then mutate i pristine.(j) else pristine.(j))))
      names;
    let before = replayed "fold" i in
    match Wal.open_ ~config dir with
    | exception e -> Alcotest.failf "case %d: open_ raised %s" i (Printexc.to_string e)
    | Error e ->
      if before <> None then
        Alcotest.failf "case %d: open_ refused a replayable journal: %s" i
          (Core.Errors.to_string e)
    | Ok t ->
      let next = Wal.next_seq t in
      Wal.close t;
      (match (before, replayed "fold after open_" i) with
       | Some high, Some high' ->
         if high' <> high then
           Alcotest.failf "case %d: open_ changed the replay (%d -> %d)" i high high';
         if next <> high + 1 then
           Alcotest.failf "case %d: open_ resumes at %d after %d records" i next high
       | Some _, None -> Alcotest.failf "case %d: open_ broke a replayable journal" i
       | None, _ -> ())
  done

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "wal",
      [
        Alcotest.test_case "append/fold/reopen round trip" `Quick test_roundtrip;
        Alcotest.test_case "append validation" `Quick test_append_validation;
        Alcotest.test_case "torn-tail recovery table" `Quick test_torn_tails;
        Alcotest.test_case "mid-log corruption is an error" `Quick
          test_midlog_corruption;
        Alcotest.test_case "rotation and prune retention" `Quick
          test_rotation_and_prune;
        Alcotest.test_case "kill mid-append" `Quick test_kill_mid_append;
        Alcotest.test_case "a segment framed with the bitwise CRC replays" `Quick
          test_bitwise_framed_segment;
        Alcotest.test_case "mutated journals replay a prefix or fail typed" `Quick
          test_mutation_fuzz;
      ] );
  ]
