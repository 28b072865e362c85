(* The kill-mid-write harness of the crash-safety tests (artifact, WAL,
   checkpoint): run [work] in an {!Experiments.Soak.child}, wait until
   the child has started it, give it [delay] more seconds, then SIGKILL
   and reap the child. Waiting for the start matters: an exec'd child
   boots for far longer than any [delay], and a kill that lands before
   [work] begins tests nothing. *)
let run ~delay work =
  let marker = Filename.temp_file "pathsel-child" ".started" in
  Sys.remove marker;
  let pid =
    Experiments.Soak.child (fun () ->
        close_out (open_out marker);
        work ())
  in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec started () =
    if not (Sys.file_exists marker) then begin
      if Unix.gettimeofday () > deadline then Alcotest.fail "child never started";
      Unix.sleepf 0.0005;
      started ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      try Sys.remove marker with Sys_error _ -> ())
    (fun () ->
      started ();
      if delay > 0.0 then Unix.sleepf delay)
