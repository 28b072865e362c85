(* argv of an exec'd child: [exe; child_arg; closure file] *)
let child_arg = "--soak-child"

let child f =
  let size = Par.Pool.size () in
  let file = Filename.temp_file "pathsel-child" ".bin" in
  Out_channel.with_open_bin file (fun oc ->
      Marshal.to_channel oc
        (fun () ->
          Par.Pool.set_size size;
          f ())
        [ Marshal.Closures ]);
  match
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; child_arg; file |]
      Unix.stdin Unix.stdout Unix.stderr
  with
  | pid -> pid
  | exception e ->
    Sys.remove file;
    raise e

let child_main () =
  match Sys.argv with
  | [| _; arg; file |] when arg = child_arg ->
    let (f : unit -> unit) = In_channel.with_open_bin file Marshal.from_channel in
    Sys.remove file;
    let status =
      match f () with
      | () -> 0
      | exception e ->
        prerr_endline ("child process: " ^ Printexc.to_string e);
        1
    in
    (* this is the child's entry point: its exit status is the result *)
    (* lint: allow-next no-exit *)
    exit status
  | _ -> ()

type t = {
  dir : string;
  mutable live : int list;  (* spawned, not yet reaped *)
}

type exit = Clean | Failed | Killed

let dir t = t.dir
let artifact_path t = Filename.concat t.dir "artifact.psa"
let addr t = Serve.Unix_sock (Filename.concat t.dir "s.sock")

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> (try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let reap t pid =
  t.live <- List.filter (( <> ) pid) t.live;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  match wait () with
  | Unix.WEXITED 0 -> Clean
  | Unix.WSIGNALED s when s = Sys.sigkill -> Killed
  | _ -> Failed

let artifact ~fingerprint ~eps setup sel =
  let pool = setup.Core.Pipeline.pool in
  Store.of_selection ~fingerprint ~n_segments:(Timing.Paths.num_segments pool)
    ~t_cons:setup.Core.Pipeline.t_cons ~eps ~a:(Timing.Paths.a_mat pool)
    ~mu:(Timing.Paths.mu_paths pool) sel

let with_session artifact f =
  let dir = Filename.temp_file "pathsel-soak" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let t = { dir; live = [] } in
  let cleanup () =
    List.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (reap t pid) with Unix.Unix_error _ -> ())
      t.live;
    rm_rf dir
  in
  Fun.protect ~finally:cleanup (fun () ->
      (match Store.save (artifact_path t) artifact with
       | Ok () -> ()
       | Error e -> Core.Errors.raise_error e);
      f t)

let spawn ?config ?reload_from t =
  let path = artifact_path t and addr = addr t in
  let pid =
    child (fun () ->
        match Store.load path with
        | Ok artifact -> Serve.run ?config ?reload_from artifact addr
        | Error e -> Core.Errors.raise_error e)
  in
  t.live <- pid :: t.live;
  pid

let connect t = Serve.Client.connect ~retries:100 (addr t)

let drain t =
  match connect t with
  | conn ->
    Serve.Client.shutdown conn;
    Serve.Client.close conn
  | exception (Unix.Unix_error _ | Serve.Io.Timeout) -> () (* already gone *)

let stats t =
  match connect t with
  | conn ->
    Fun.protect ~finally:(fun () -> Serve.Client.close conn) (fun () ->
        Serve.Client.stats conn)
  | exception (Unix.Unix_error _ | Serve.Io.Timeout) -> Error "server unreachable"

let write ?(oc = stdout) ?out experiment fields =
  let fields = (("experiment", Core.Report.String experiment) :: Host.fields ()) @ fields in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (key, _) ->
      if Hashtbl.mem seen key then
        invalid_arg (Printf.sprintf "Soak.write %s: duplicate field %S" experiment key);
      Hashtbl.add seen key ())
    fields;
  match out with
  | None -> ()
  | Some path ->
    Core.Report.write_file path (Core.Report.Obj fields);
    Printf.fprintf oc "wrote %s\n%!" path

let rows_of m i0 k = Linalg.Mat.select_rows m (Array.init k (( + ) i0))

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let int_stat resp key =
  match Serve.Wire.member key resp with Some (Serve.Wire.Int n) -> n | _ -> 0

let int_member resp key =
  match Serve.Wire.member key resp with Some (Serve.Wire.Int n) -> n | _ -> min_int

let float_member resp key =
  match Serve.Wire.member key resp with
  | Some (Serve.Wire.Float x) -> x
  | Some (Serve.Wire.Int n) -> float_of_int n
  | _ -> Float.nan

let string_member resp key =
  match Serve.Wire.member key resp with Some (Serve.Wire.String s) -> s | _ -> ""
