"""``bench.server`` with an ARQ app that loses the third payload it delivers.

The mutation check: the app still acknowledges every frame, so the
client finishes normally, and only the benchmark's delivered-payload
CRC32 can notice.
"""

from bench import use_src


def main() -> None:
    use_src()
    from repro.serve import apps

    from bench import server

    class DropsOne(apps.ArqResponderApp):
        dropped = False

        def on_frame(self, data: bytes) -> None:
            super().on_frame(data)
            if not self.dropped and len(self.delivered) == 3:
                self.dropped = True
                del self.delivered[2]

    apps.APPS["arq"] = DropsOne
    server.main()


if __name__ == "__main__":
    main()
