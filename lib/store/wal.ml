type config = { segment_bytes : int; retain_segments : int }

let default_config = { segment_bytes = 1 lsl 22; retain_segments = 1 }

type t = {
  dir : string;
  cfg : config;
  lock : Mutex.t;
  mutable fd : Unix.file_descr;
  mutable seg_bytes : int; (* bytes in the active segment *)
  mutable next : int; (* sequence number of the next record *)
  mutable closed : bool;
}

let next_seq t = t.next

(* Frame: u32 len (8 + payload) | u32 crc (of seq+payload) | u64 seq
   | payload. 16 bytes of overhead per record. *)
let frame_header = 16

let typed_error ~file = function
  | Sys_error msg -> Core.Errors.Io { file; msg }
  | Unix.Unix_error (err, fn, _) ->
    Core.Errors.Io
      { file; msg = Printf.sprintf "%s: %s" fn (Unix.error_message err) }
  | exn -> raise exn

let protect_io ~file f =
  match f () with
  | v -> Ok v
  | exception Core.Errors.Error e -> Error e
  | exception ((Sys_error _ | Unix.Unix_error _) as exn) ->
    Error (typed_error ~file exn)

let corrupt file msg = Error (Core.Errors.Corrupt_artifact { file; msg })

(* best-effort directory-entry durability, as in [Store.save] *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | dfd ->
    (try Unix.fsync dfd with Unix.Unix_error _ -> ());
    (try Unix.close dfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let segment_name seq = Printf.sprintf "wal-%020d.log" seq

let segment_base name =
  (* "wal-<20 digits>.log" -> first sequence number it holds *)
  match int_of_string (String.sub name 4 20) with
  | seq when seq >= 1 -> Some seq
  | _ | (exception _) -> None

let is_segment name =
  String.length name = 28
  && String.sub name 0 4 = "wal-"
  && Filename.check_suffix name ".log"
  && segment_base name <> None

let list_segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter is_segment
  |> List.sort String.compare

(* Scan one segment image. Returns the intact records (in order), the
   byte offset just past the last intact frame, and whether the scan
   stopped early (torn/corrupt tail). Sequence numbers must run
   [base, base+1, ...]: a skew means the file is not the segment its
   name claims, which is corruption, not tearing. *)
let scan_segment ~base s =
  let n = String.length s in
  let records = ref [] in
  let pos = ref 0 in
  let good_end = ref 0 in
  let expected = ref base in
  let torn = ref false in
  (try
     while (not !torn) && !pos + frame_header <= n do
       let len = Int32.to_int (String.get_int32_le s !pos) land 0xFFFFFFFF in
       if len < 8 || len > Codec.max_len || !pos + 8 + len > n then torn := true
       else begin
         let crc = Int32.to_int (String.get_int32_le s (!pos + 4)) land 0xFFFFFFFF in
         let body = String.sub s (!pos + 8) len in
         if Codec.crc32 body <> crc then torn := true
         else begin
           let seq = Int64.to_int (String.get_int64_le body 0) in
           if seq <> !expected then torn := true
           else begin
             records := (seq, String.sub body 8 (len - 8)) :: !records;
             incr expected;
             pos := !pos + 8 + len;
             good_end := !pos
           end
         end
       end
     done
   with Invalid_argument _ -> torn := true);
  let torn = !torn || !good_end < n in
  (List.rev !records, !good_end, torn)

let open_segment dir name =
  Unix.openfile (Filename.concat dir name)
    [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
    0o644

let open_ ?(config = default_config) dir =
  if config.segment_bytes < 1 lsl 12 then
    invalid_arg "Wal.open_: segment_bytes must be at least 4096";
  if config.retain_segments < 0 then
    invalid_arg "Wal.open_: retain_segments must be >= 0";
  protect_io ~file:dir @@ fun () ->
  (match Unix.mkdir dir 0o755 with
   | () -> ()
   | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  match List.rev (list_segments dir) with
  | [] ->
    let name = segment_name 1 in
    let fd = open_segment dir name in
    fsync_dir dir;
    { dir; cfg = config; lock = Mutex.create (); fd; seg_bytes = 0;
      next = 1; closed = false }
  | last :: _ ->
    (* torn-tail recovery: truncate the active segment back to its
       last intact record so appends continue from clean bytes *)
    let base = Option.get (segment_base last) in
    let path = Filename.concat dir last in
    let s = Core.Errors.(get_ok (read_file path)) in
    let records, good_end, torn = scan_segment ~base s in
    if torn then begin
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.ftruncate fd good_end;
          Unix.fsync fd)
    end;
    let next =
      match List.rev records with (seq, _) :: _ -> seq + 1 | [] -> base
    in
    let fd = open_segment dir last in
    { dir; cfg = config; lock = Mutex.create (); fd; seg_bytes = good_end;
      next; closed = false }

let rotate t =
  Unix.fsync t.fd;
  Unix.close t.fd;
  t.fd <- open_segment t.dir (segment_name t.next);
  t.seg_bytes <- 0;
  fsync_dir t.dir

let append t payloads =
  if payloads = [] then invalid_arg "Wal.append: empty batch";
  List.iter
    (fun p ->
      if String.length p > Codec.max_len - 8 then
        invalid_arg "Wal.append: payload too large")
    payloads;
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  if t.closed then invalid_arg "Wal.append: closed";
  protect_io ~file:t.dir @@ fun () ->
  if t.seg_bytes >= t.cfg.segment_bytes then rotate t;
  let first = t.next in
  let buf = Buffer.create 256 in
  List.iteri
    (fun i payload ->
      let seq = first + i in
      let len = 8 + String.length payload in
      let body = Bytes.create len in
      Bytes.set_int64_le body 0 (Int64.of_int seq);
      Bytes.blit_string payload 0 body 8 (String.length payload);
      let body = Bytes.unsafe_to_string body in
      let hdr = Bytes.create 8 in
      Bytes.set_int32_le hdr 0 (Int32.of_int len);
      Bytes.set_int32_le hdr 4 (Int32.of_int (Codec.crc32 body));
      Buffer.add_bytes buf hdr;
      Buffer.add_string buf body)
    payloads;
  let b = Buffer.to_bytes buf in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write t.fd b !off (n - !off)
  done;
  (* the ack barrier: the batch is durable before any caller replies *)
  Unix.fsync t.fd;
  t.seg_bytes <- t.seg_bytes + n;
  t.next <- first + List.length payloads;
  t.next - 1

(* one segment in memory at a time, each read by [Core.Errors.read_file] *)
let fold ?(from_seq = 1) dir ~init ~f =
  match protect_io ~file:dir (fun () -> list_segments dir) with
  | Error _ as e -> e
  | Ok segments ->
    let n_segs = List.length segments in
    let rec go i acc last segments =
      match segments with
      | [] -> Ok (acc, last)
      | name :: rest ->
        let path = Filename.concat dir name in
        (match (segment_base name, Core.Errors.read_file path) with
         | None, _ -> corrupt path "bad segment name"
         | _, (Error _ as e) -> e
         | Some base, Ok s ->
           (* every segment after the first starts right after its
              predecessor's last record; an emptied sealed segment
              counts as ending at [base - 1] *)
           if i > 0 && base <> last + 1 then
             corrupt path
               (Printf.sprintf "sequence gap: segment starts at %d after %d"
                  base last)
           else begin
             let records, _, torn = scan_segment ~base s in
             if torn && i < n_segs - 1 then
               corrupt path
                 "corrupt record before the last segment"
             else begin
               let acc =
                 List.fold_left
                   (fun acc (seq, payload) ->
                     if seq >= from_seq then f acc ~seq payload else acc)
                   acc records
               in
               let last =
                 match List.rev records with
                 | (seq, _) :: _ -> seq
                 | [] -> base - 1
               in
               go (i + 1) acc last rest
             end
           end)
    in
    go 0 init 0 segments

let prune t ~upto_seq =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  protect_io ~file:t.dir @@ fun () ->
  let segments = list_segments t.dir in
  (* a sealed segment is fully covered when the next segment's base
     (its successor's first record) is <= upto_seq + 1 *)
  let rec covered = function
    | a :: (b :: _ as rest) ->
      (match segment_base b with
       | Some base when base <= upto_seq + 1 -> a :: covered rest
       | _ -> [])
    | [ _ ] | [] -> [] (* never the active segment *)
  in
  let victims = covered segments in
  let keep = t.cfg.retain_segments in
  let n = List.length victims in
  let victims =
    if n <= keep then [] else List.filteri (fun i _ -> i < n - keep) victims
  in
  List.iter (fun name -> Sys.remove (Filename.concat t.dir name)) victims;
  if victims <> [] then fsync_dir t.dir;
  List.length victims

let close t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  if not t.closed then begin
    t.closed <- true;
    (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
