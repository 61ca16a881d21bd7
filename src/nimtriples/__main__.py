import sys

try:
    from .cli import main
except KeyboardInterrupt:  # as main reads an interrupt: exit 130, and with no line
    sys.exit(130)

sys.exit(main())
